//! Property tests of the integer linear kernels against the f32 reference
//! on grid values: the implicit-GEMM convolution and the batch-major
//! capsule votes, on both accumulator instantiations (`i16 × i16 → i32`
//! and the `i64` fallback).
//!
//! Operands are small raw integers at a few fractional bits, so every f32
//! product and partial sum of the reference is an exactly representable
//! grid value and the two paths must agree bit for bit. The epilogues add
//! each element's global offset to it, which checks that every row is
//! handed over exactly once under the reference's position key.

use proptest::prelude::*;
use qcn_capsnet::layers::caps_votes_infer;
use qcn_intinfer::kernels::{caps_votes, conv2d, AccWidth, LinearWeights};
use qcn_intinfer::{raw_to_f32, IntTensor};
use qcn_tensor::conv::{conv2d as conv2d_f32, Conv2dSpec, PatchTable};
use qcn_tensor::parallel::with_threads;
use qcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const X_FRAC: u8 = 4;
const W_FRAC: u8 = 3;

/// `n` raw words in `-span..=span`.
fn raws(rng: &mut StdRng, n: usize, span: i64) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(-span..=span)).collect()
}

fn to_f32(raw: &[i64], frac: u8, dims: &[usize]) -> Tensor {
    Tensor::from_vec(
        raw.iter().map(|&r| raw_to_f32(r, frac)).collect(),
        dims.to_vec(),
    )
    .unwrap()
}

/// Adds each element's global offset to it (on the accumulator grid).
fn mark(off: usize, row: &mut [i64]) {
    for (t, v) in row.iter_mut().enumerate() {
        *v += (off + t) as i64;
    }
}

/// The reference output `want` (f32, at `frac`) as raw words plus the
/// element offsets [`mark`] adds.
fn marked(want: &Tensor, frac: u8) -> Vec<i64> {
    let scale = f64::from(frac).exp2();
    want.data()
        .iter()
        .enumerate()
        .map(|(i, &v)| (f64::from(v) * scale) as i64 + i as i64)
        .collect()
}

/// Convolution geometry `[b, c0, ci, extra, co, side, k, stride, pad]`:
/// batch, first channel read, channels read, channels after them, output
/// channels, image side, kernel side, stride, padding. Up to 30 channels
/// under a 3×3 kernel take K past the 256-deep panel; output channels off
/// a multiple of 4 and images off a multiple of 16 pixels leave edge
/// `MR`/`NR` tiles.
fn conv_geometry() -> impl Strategy<Value = [usize; 9]> {
    (
        (
            1usize..4,
            0usize..3,
            prop_oneof![1usize..5, 26usize..31],
            0usize..2,
        ),
        (1usize..11, 3usize..10, 1usize..4, 1usize..3),
        0usize..2,
    )
        .prop_map(|((b, c0, ci, extra), (co, side, k, stride), pad)| {
            [b, c0, ci, extra, co, side, k, stride, pad]
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_matches_f32_reference_on_grid_values(
        g in conv_geometry(),
        seed in 0u64..1_000_000,
        threads in 1usize..4,
        with_bias in 0u8..2,
    ) {
        let [b, c0, ci, extra, co, side, k, stride, pad] = g;
        let c = c0 + ci + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = IntTensor::from_raw(
            raws(&mut rng, b * c * side * side, 100),
            vec![b, c, side, side],
            X_FRAC,
        );
        let w = raws(&mut rng, co * ci * k * k, 100);
        let bias = raws(&mut rng, co, 100);
        let bias = (with_bias == 1).then_some(bias.as_slice());
        let weights = LinearWeights::conv(&w, bias, co);
        let spec = Conv2dSpec::new(k, k, stride, pad);
        let (oh, ow) = spec.output_hw(side, side);
        let patches = PatchTable::new(ci, side, side, spec);
        // The reference reads the channel range as a tensor of its own.
        let plane = side * side;
        let xs: Vec<i64> = (0..b)
            .flat_map(|t| x.data()[(t * c + c0) * plane..(t * c + c0 + ci) * plane].to_vec())
            .collect();
        let want = conv2d_f32(
            &to_f32(&xs, X_FRAC, &[b, ci, side, side]),
            &to_f32(&w, W_FRAC, &[co, ci, k, k]),
            bias.map(|bv| to_f32(bv, W_FRAC, &[co])).as_ref(),
            spec,
        );
        let want = marked(&want, X_FRAC + W_FRAC);
        prop_assert_eq!(weights.acc_width(-100, 100, X_FRAC), AccWidth::I32);
        for width in [AccWidth::I32, AccWidth::I64] {
            let mut out = vec![0i64; b * co * oh * ow];
            with_threads(threads, || {
                conv2d(&x, c0, &weights, co, &patches, width, &mut out, Some(&mark));
            });
            prop_assert_eq!(&out, &want, "{:?} geometry {:?}", width, g);
        }
    }

    #[test]
    fn votes_match_f32_reference_on_grid_values(
        dims in (1usize..10, 1usize..40, 1usize..9, (1usize..12, 1usize..10)),
        seed in 0u64..1_000_000,
        threads in 1usize..4,
    ) {
        let (b, ni, di, (nj, dj)) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = IntTensor::from_raw(raws(&mut rng, b * ni * di, 100), vec![b, ni, di], X_FRAC);
        let w = raws(&mut rng, ni * nj * di * dj, 100);
        let weights = LinearWeights::votes(&w, ni, nj, di, dj);
        let want = caps_votes_infer(&x.to_f32(), &to_f32(&w, W_FRAC, &[ni, nj, di, dj]));
        let want = marked(&want, X_FRAC + W_FRAC);
        prop_assert_eq!(weights.acc_width(-100, 100, X_FRAC), AccWidth::I32);
        for width in [AccWidth::I32, AccWidth::I64] {
            let got = with_threads(threads, || {
                caps_votes(&x, &weights, nj, dj, width, X_FRAC + W_FRAC, &mark)
            });
            // The kernel lays votes out capsule-major, [ni, b, nj, dj].
            prop_assert_eq!(got.dims(), &[ni, b, nj, dj]);
            let got = got.permute(&[1, 0, 2, 3]);
            prop_assert_eq!(got.data(), want.as_slice(), "{:?} dims {:?}", width, dims);
        }
    }
}

#[test]
fn wide_weights_run_on_the_i64_path() {
    // Weights beyond 16 bits are stored wide and only the i64 path can
    // take them; inputs stay within ±1 so the f32 reference is still exact.
    let mut rng = StdRng::seed_from_u64(11);
    let (b, ci, co, side) = (2, 3, 5, 6);
    let x = IntTensor::from_raw(
        raws(&mut rng, b * ci * side * side, 1),
        vec![b, ci, side, side],
        0,
    );
    let w = raws(&mut rng, co * ci * 9, 40_000);
    let weights = LinearWeights::conv(&w, None, co);
    assert_eq!(weights.acc_width(-1, 1, 0), AccWidth::I64);
    assert_eq!(weights.bytes(), w.len() * 8);
    let spec = Conv2dSpec::new(3, 3, 1, 1);
    let mut out = vec![0i64; b * co * side * side];
    conv2d(
        &x,
        0,
        &weights,
        co,
        &PatchTable::new(ci, side, side, spec),
        AccWidth::I64,
        &mut out,
        Some(&mark),
    );
    let want = conv2d_f32(&x.to_f32(), &to_f32(&w, 0, &[co, ci, 3, 3]), None, spec);
    assert_eq!(out, marked(&want, 0));
}

#[test]
fn accumulator_proof_tracks_the_worst_case_sum() {
    // One output row of K = 600 weights of magnitude 127 (8-bit): with
    // 8-bit inputs the worst case Σ|w|·max|x| is 600·127·128 < 2^24.
    let weights = LinearWeights::conv(&[127; 600], Some(&[-128]), 1);
    assert_eq!(weights.bytes(), 601 * 2, "8-bit words are stored as i16");
    assert_eq!(weights.acc_width(-128, 127, 7), AccWidth::I32);
    // 16-bit inputs push 600·127·32768 past i32.
    assert_eq!(weights.acc_width(-32768, 32767, 15), AccWidth::I64);
    // An input outside i16 cannot take the narrow path at all.
    assert_eq!(weights.acc_width(0, 40_000, 0), AccWidth::I64);
    // The bias counts too: |bias|·2^x_frac alone can break the bound.
    assert_eq!(weights.acc_width(-1, 1, 24), AccWidth::I64);
}
