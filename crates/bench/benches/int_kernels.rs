//! Criterion micro-benchmarks of the raw-integer inference kernels —
//! the deployment-datapath counterparts of the f32 kernels in
//! `benches/kernels.rs`, at the same problem sizes so the two reports
//! read side by side: integer convolution and the batch-major
//! capsule-vote GEMM on both accumulator widths, the dynamic-routing loop
//! in both unit modes, and the shift-based requantization epilogue per
//! rounding scheme.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qcn_capsnet::QuantCtx;
use qcn_fixed::{QFormat, Quantizer, RoundingScheme};
use qcn_intinfer::epilogue::KeyedRequant;
use qcn_intinfer::kernels::{caps_votes, conv2d, AccWidth, LinearWeights};
use qcn_intinfer::routing::{route_per_sample_raw, RoutePlan, RoutingSpec};
use qcn_intinfer::{IntTensor, UnitMode};
use qcn_tensor::conv::Conv2dSpec;
use std::hint::black_box;

/// Deterministic raw words on a `frac`-bit grid, spread over a few integer
/// bits so the accumulators exercise realistic magnitudes.
fn raw_values(n: usize, frac: u8, seed: i64) -> Vec<i64> {
    let span = 1i64 << (frac + 2);
    (0..n)
        .map(|i| (i as i64 * 37 + seed * 11) % span - span / 2)
        .collect()
}

fn bench_int_conv2d(c: &mut Criterion) {
    // Same geometry as "conv2d 8x16x16x16 -> 32ch 3x3" in kernels.rs.
    let x = IntTensor::from_raw(raw_values(8 * 16 * 16 * 16, 5, 1), vec![8, 16, 16, 16], 5);
    let weights = LinearWeights::conv(
        &raw_values(32 * 16 * 3 * 3, 5, 2),
        Some(&raw_values(32, 5, 3)),
        32,
    );
    let spec = Conv2dSpec::new(3, 3, 1, 1);
    let acc = x.frac() + 5;
    let rq = KeyedRequant::new(
        acc,
        Quantizer::new(QFormat::with_frac(5), RoundingScheme::RoundToNearest).fused(0xBEEF),
    );
    let epi = move |off: usize, row: &mut [i64]| rq.apply_raw(off, row);
    let mut out = vec![0i64; 8 * 32 * 16 * 16];
    for width in [AccWidth::I32, AccWidth::I64] {
        c.bench_function(
            &format!("int conv2d 8x16x16x16 -> 32ch 3x3 ({width:?}, no epilogue)"),
            |b| b.iter(|| conv2d(black_box(&x), 0, &weights, 32, spec, width, &mut out, None)),
        );
        c.bench_function(
            &format!("int conv2d 8x16x16x16 -> 32ch 3x3 ({width:?}, fused requant)"),
            |b| {
                b.iter(|| {
                    conv2d(
                        black_box(&x),
                        0,
                        &weights,
                        32,
                        spec,
                        width,
                        &mut out,
                        Some(&epi),
                    )
                })
            },
        );
    }
}

fn bench_int_caps_votes(c: &mut Criterion) {
    // Same geometry as "caps_votes 16x128x4 -> 10x8" in kernels.rs.
    let input = IntTensor::from_raw(raw_values(16 * 128 * 4, 5, 4), vec![16, 128, 4], 5);
    let weights = LinearWeights::votes(&raw_values(128 * 10 * 4 * 8, 5, 5), 128, 10, 4, 8);
    let acc = input.frac() + 5;
    let rq = KeyedRequant::new(
        acc,
        Quantizer::new(QFormat::with_frac(4), RoundingScheme::RoundToNearest).fused(0xBEEF),
    );
    let epi = move |off: usize, row: &mut [i64]| rq.apply_raw(off, row);
    for width in [AccWidth::I32, AccWidth::I64] {
        c.bench_function(
            &format!("int caps_votes 16x128x4 -> 10x8 ({width:?}, fused requant)"),
            |b| b.iter(|| caps_votes(black_box(&input), &weights, 10, 8, width, 4, &epi)),
        );
    }
}

fn bench_int_routing(c: &mut Criterion) {
    // ShallowCaps-S DigitCaps routing as served: 128 input capsules, 10
    // classes × 8-D, 3 iterations at Q_DR 4 (i32 lanes), one sample.
    let spec = RoutingSpec {
        iters: 3,
        ti: 128,
        to: 10,
        dd: 8,
        s: 1,
        out_frac: 5,
    };
    // Votes on the clamped Q1.4 grid, [ti, b, to, dd, s].
    let votes: Vec<i64> = (0..128 * 10 * 8).map(|i| (i * 37 + 11) % 32 - 16).collect();
    let votes = IntTensor::from_raw(votes, vec![128, 1, 10, 8, 1], 4);
    let plan = RoutePlan::new(spec.ti, spec.dd, 4);
    assert_eq!(plan.width(), AccWidth::I32);
    for mode in [UnitMode::FloatExact, UnitMode::Integer] {
        c.bench_function(&format!("int routing 128x10x8 3 iters ({mode:?})"), |b| {
            b.iter(|| {
                let mut ctx = QuantCtx::new(RoundingScheme::RoundToNearest, 0xBEEF);
                route_per_sample_raw(black_box(&votes), spec, &plan, mode, &mut ctx)
            })
        });
    }
}

fn bench_shift_requant(c: &mut Criterion) {
    // Counterpart of "quantize 64k elements" in kernels.rs: the raw
    // shift-based requantization from 10 to 5 fractional bits.
    let values = raw_values(65_536, 10, 6);
    for scheme in RoundingScheme::EXTENDED {
        let rq = KeyedRequant::new(
            10,
            Quantizer::new(QFormat::with_frac(5), scheme).fused(0xBEEF),
        );
        c.bench_function(&format!("int requant 64k elements ({scheme})"), |b| {
            b.iter_batched(
                || values.clone(),
                |mut vals| {
                    rq.apply_raw(0, &mut vals);
                    vals
                },
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group! {
    name = int_kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_int_conv2d, bench_int_caps_votes, bench_int_routing, bench_shift_requant
}
criterion_main!(int_kernels);
