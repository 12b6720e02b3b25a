//! The `i16` blocked GEMM against its oracles: the instantiation the
//! engine runs (`vpmaddwd` on AVX2 builds), the portable register-tile
//! kernel, and the `i64` instantiation must give the same bits.
//!
//! The portable kernel is reached through [`Portable`], an `i16` word that
//! keeps [`GemmElem::tile`]'s default. Shapes cover odd depths and depths
//! across the 256-deep panel edge (so later panels add to the stored
//! first one), every edge-tile width up to 64 and past it, and 1–4 row
//! tiles. Operands reach ±32767 and −32768 wherever the accumulator proof
//! (`max_i Σ_l |a[i,l]| · max|b| ≤ i32::MAX`) still allows `i32`.

use proptest::prelude::*;
use qcn_tensor::parallel::with_threads;
use qcn_tensor::{batched_gemm, GemmElem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An `i16` word on the portable kernel.
#[derive(Debug, Clone, Copy, Default)]
struct Portable(i16);

impl GemmElem for Portable {
    type Acc = i32;
    type Out = i64;
    fn mac(a: Portable, b: Portable, acc: i32) -> i32 {
        acc + i32::from(a.0) * i32::from(b.0)
    }
}

const EXTREMES: [i16; 3] = [i16::MAX, i16::MIN, -i16::MAX];

/// `n` words anywhere in `i16`, a tenth of them at the extremes.
fn full_range(rng: &mut StdRng, n: usize) -> Vec<i16> {
    (0..n)
        .map(|_| {
            if rng.gen_range(0..10) == 0 {
                EXTREMES[rng.gen_range(0..EXTREMES.len())]
            } else {
                rng.gen_range(i16::MIN..=i16::MAX)
            }
        })
        .collect()
}

/// `rows × k` words whose rows each have `Σ|a| ≤ budget`: mostly small,
/// some at the extremes while the budget lasts, then clamped to what is
/// left of it.
fn within_budget(rng: &mut StdRng, rows: usize, k: usize, budget: u64) -> Vec<i16> {
    let mut out = Vec::with_capacity(rows * k);
    for _ in 0..rows {
        let mut left = budget;
        for _ in 0..k {
            let v: i64 = if rng.gen_range(0..8) == 0 {
                i64::from(EXTREMES[rng.gen_range(0..EXTREMES.len())])
            } else {
                rng.gen_range(-50..=50)
            };
            let v = v.clamp(-(left as i64), left as i64);
            left -= v.unsigned_abs();
            out.push(v as i16);
        }
    }
    out
}

/// The largest row sum `Σ|a|` of `a` (`k` wide) times `max|b|`: the bound
/// the accumulator proof checks against `i32::MAX`.
fn proof_bound(a: &[i16], k: usize, b: &[i16]) -> u64 {
    let row = a
        .chunks(k.max(1))
        .map(|r| r.iter().map(|v| u64::from(v.unsigned_abs())).sum::<u64>())
        .max()
        .unwrap_or(0);
    row * b
        .iter()
        .map(|v| u64::from(v.unsigned_abs()))
        .max()
        .unwrap_or(0)
}

/// `out[t] = a[t] × b[t]` on element type `E`.
fn product<E: GemmElem<Out = i64>>(
    a: &[i16],
    b: &[i16],
    m: usize,
    k: usize,
    n: usize,
    to: impl Fn(i16) -> E,
) -> Vec<i64> {
    let a: Vec<E> = a.iter().map(|&v| to(v)).collect();
    let b: Vec<E> = b.iter().map(|&v| to(v)).collect();
    let mut out = vec![0i64; a.len() / (m * k).max(1) * m * n];
    batched_gemm(&a, &b, &mut out, m, k, n, |_, _| {});
    out
}

/// Depths: odd, around the 256-deep panel edge, and several panels.
fn depth() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..8, 255usize..258, 598usize..603]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn i16_kernels_agree_with_the_portable_and_i64_products(
        k in depth(),
        m in 1usize..10,
        n in prop_oneof![1usize..65, 65usize..140],
        batches in 1usize..4,
        extreme_lhs in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Extremes on one side; the other side is bounded so the proof
        // still says i32.
        let (a, b) = if extreme_lhs == 1 {
            let a = full_range(&mut rng, batches * m * k);
            let row_max = a
                .chunks(k)
                .map(|r| r.iter().map(|v| u64::from(v.unsigned_abs())).sum::<u64>())
                .max()
                .unwrap_or(1)
                .max(1);
            let cap = (i32::MAX as u64 / row_max).min(i16::MAX as u64) as i16;
            let b = (0..batches * k * n).map(|_| rng.gen_range(-cap..=cap)).collect();
            (a, b)
        } else {
            let b = full_range(&mut rng, batches * k * n);
            (within_budget(&mut rng, batches * m, k, i32::MAX as u64 / 32768), b)
        };
        prop_assert!(proof_bound(&a, k, &b) <= i32::MAX as u64);
        let oracle = product(&a, &b, m, k, n, i64::from);
        prop_assert_eq!(&product(&a, &b, m, k, n, Portable), &oracle, "portable, m {} k {} n {}", m, k, n);
        for threads in [1, 2, 7] {
            let got = with_threads(threads, || product(&a, &b, m, k, n, |v| v));
            prop_assert_eq!(&got, &oracle, "i16, m {} k {} n {} threads {}", m, k, n, threads);
        }
    }
}

#[test]
fn pair_sums_at_the_proof_limit_are_exact() {
    // One row holding −32768 and 32767 sits exactly at the proof's limit
    // against ±32768 inputs: with inputs (−32768, 32767) the sum is
    // 2^31 − 65535 and with (32767, −32768) it is −2^31 + 65536, one
    // `vpmaddwd` pair at even depths; odd depths pair the last row with
    // zero.
    for k in [2, 3, 257, 601] {
        let mut a = vec![0i16; k];
        a[k - 2] = i16::MIN;
        a[k - 1] = i16::MAX;
        for (x0, x1) in [
            (i16::MIN, i16::MIN),
            (i16::MIN, i16::MAX),
            (i16::MAX, i16::MIN),
            (i16::MAX, i16::MAX),
        ] {
            let mut b = vec![7i16; k * 16];
            b[(k - 2) * 16..(k - 1) * 16].fill(x0);
            b[(k - 1) * 16..].fill(x1);
            assert!(proof_bound(&a, k, &b) <= i32::MAX as u64);
            let oracle = product(&a, &b, 1, k, 16, i64::from);
            assert_eq!(product(&a, &b, 1, k, 16, |v| v), oracle, "k {k}");
            assert_eq!(product(&a, &b, 1, k, 16, Portable), oracle, "k {k}");
        }
    }
}

#[test]
fn large_batches_split_across_threads_identically() {
    // Enough work that the integer worker threshold hands out several
    // workers.
    let (m, k, n, batches) = (8, 600, 64, 12);
    let mut rng = StdRng::seed_from_u64(5);
    let a: Vec<i16> = (0..batches * m * k)
        .map(|_| rng.gen_range(-200..=200))
        .collect();
    let b: Vec<i16> = (0..batches * k * n)
        .map(|_| rng.gen_range(-200..=200))
        .collect();
    let oracle = product(&a, &b, m, k, n, i64::from);
    for threads in [1, 2, 7] {
        let got = with_threads(threads, || product(&a, &b, m, k, n, |v| v));
        assert_eq!(got, oracle, "threads {threads}");
    }
}
