//! The two nonlinear capsule units — squash and coupling softmax — in the
//! engine's two execution modes.
//!
//! Everything linear in the engine is exact integer arithmetic, so the
//! only place the integer datapath can diverge from the fake-quant f32
//! reference is inside these units. [`UnitMode`] selects how they run:
//!
//! * [`UnitMode::FloatExact`] dequantizes the unit's operands (exact — they
//!   are on-grid and well inside f32's 24-bit window), runs the reference
//!   squash (or replays the reference softmax's f32 operations in their
//!   exact order) and rounds through the same keyed epilogue straight to
//!   raw grid indices. This mode is bit-identical to the reference end to
//!   end and models a deployment with a small float helper unit.
//! * [`UnitMode::Integer`] evaluates the units with the pure integer
//!   kernels of [`qcn_fixed::int_squash`] / [`qcn_fixed::int_softmax`]
//!   (integer square root, Q-format exponential) — no float anywhere, with
//!   the documented per-unit error bounds of a few output ulps.

use crate::epilogue::KeyedRequant;
use crate::tensor::raw_to_f32;
use qcn_capsnet::layers::squash_blocks_fused;
use qcn_fixed::{int_softmax, int_squash, QFormat};

/// How the engine evaluates the nonlinear units (squash, softmax).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitMode {
    /// Replay the reference f32 unit implementations bit-exactly on
    /// dequantized operands; the linear datapath stays integer. Output
    /// logits equal the fake-quant reference bit for bit (all rounding
    /// schemes, every thread count).
    FloatExact,
    /// Evaluate the units with pure integer arithmetic
    /// ([`qcn_fixed::int_squash`], [`qcn_fixed::int_softmax`]): no float
    /// operations anywhere in the forward pass, at the cost of a few
    /// output-ulp deviation per unit from the reference.
    Integer,
}

/// Reusable buffers of the unit kernels: a routed sample allocates one
/// and threads it through every iteration.
#[derive(Debug, Default)]
pub(crate) struct UnitScratch {
    /// Dequantized operands, in the caller's order.
    f: Vec<f32>,
    /// One softmax position's exponentials, transposed to `[to][ti]`.
    e: Vec<f32>,
    /// Per-column softmax sums.
    sum: Vec<f32>,
    /// One gathered integer column.
    col: Vec<i64>,
}

/// Elements the float-exact squash dequantizes at a time: whole blocks,
/// at least one, so large feature maps stay in cache.
const SQUASH_TILE: usize = 4096;

/// Squashes contiguous `[d, s]` blocks of raw values at `in_frac`
/// fractional bits and requantizes them through the keyed epilogue `rq`
/// — float-exact mode runs the reference's `squash_blocks_fused` on
/// tiles of whole dequantized blocks, in cache. On return the data sits at
/// `rq.out_frac()`.
pub(crate) fn squash_blocks_requant(
    mode: UnitMode,
    data: &mut [i64],
    in_frac: u8,
    d: usize,
    s: usize,
    rq: &KeyedRequant,
    scratch: &mut UnitScratch,
) {
    let block = d * s;
    assert!(block > 0, "squash block must be non-empty");
    assert_eq!(data.len() % block, 0, "data must divide into [d, s] blocks");
    let tile = (SQUASH_TILE / block).max(1) * block;
    for (n, part) in data.chunks_mut(tile).enumerate() {
        match mode {
            UnitMode::FloatExact => {
                let f = &mut scratch.f;
                f.clear();
                f.extend(part.iter().map(|&r| raw_to_f32(r, in_frac)));
                squash_blocks_fused(f, d, s, None);
                // The rounding is keyed by position, so one pass over the
                // tile equals the reference's one pass per block.
                rq.fused().apply_raw(n * tile, f, part);
            }
            UnitMode::Integer => {
                // Two integer bits: squash outputs have length < 1, so the
                // clamp never engages (the reference applies no clamp here
                // either).
                let format = QFormat::new(2, in_frac);
                for blk in part.chunks_exact_mut(block) {
                    for sp in 0..s {
                        let col = &mut scratch.col;
                        col.clear();
                        col.extend(blk.iter().skip(sp).step_by(s));
                        int_squash(col, format);
                        for (o, &v) in blk.iter_mut().skip(sp).step_by(s).zip(col.iter()) {
                            *o = v;
                        }
                    }
                }
                rq.apply_raw(n * tile, part);
            }
        }
    }
}

/// The routing coupling softmax over output types, on one sample's logits
/// `[ti, to, s]` at `dr` fractional bits, rounded back onto the `dr` grid.
///
/// Float-exact mode replays `Tensor::softmax_axis(2)`'s arithmetic — max
/// folded ascending from −∞, `exp`, sum folded ascending from zero,
/// divide — column-parallel across the `ti` input types of each position:
/// the exponentials are transposed to `[to][ti]`, so every step is one
/// lane-wise pass per output type and each column keeps its own ascending
/// folds. Logits lie in Q1.`dr` (routing's requantization clamps them),
/// so the max is taken on raw words and `lane[t] − max` is exactly
/// `−k·2^-dr` for `k = max − raw`; `exp` (`RoutePlan`'s table of
/// `exp(−k·2^-dr)`) holds exactly the values `f32::exp` returns there, and
/// without a table the reference expression is evaluated directly. The
/// whole tensor is then rounded through the site's keyed epilogue `rq`,
/// exactly as the reference rounds `softmax_axis(2)`'s output. Integer
/// mode runs [`int_softmax`] per `(i, sp)` column; its output is already
/// on the `dr` grid, so `rq` goes unused.
#[allow(clippy::too_many_arguments)]
pub(crate) fn softmax_over_types(
    mode: UnitMode,
    logits: &mut [i64],
    ti: usize,
    to: usize,
    s: usize,
    dr: u8,
    exp: Option<&[f32]>,
    rq: &KeyedRequant,
    scratch: &mut UnitScratch,
) {
    assert_eq!(logits.len(), ti * to * s, "softmax logits shape mismatch");
    if logits.is_empty() {
        return;
    }
    let UnitScratch { f, e, sum, col } = scratch;
    match mode {
        UnitMode::FloatExact => {
            f.resize(logits.len(), 0.0);
            for sp in 0..s {
                // Exponentials transposed to `[to][ti]`: input type `i`'s
                // column runs down lane `i`.
                e.resize(to * ti, 0.0);
                for (i, col) in logits.chunks_exact(to * s).enumerate() {
                    let x = |t: usize| col[t * s + sp];
                    let m = (0..to).map(x).max().unwrap_or(0);
                    for t in 0..to {
                        e[t * ti + i] = match exp {
                            Some(table) => table[(m - x(t)) as usize],
                            None => (raw_to_f32(x(t), dr) - raw_to_f32(m, dr)).exp(),
                        };
                    }
                }
                sum.clear();
                sum.resize(ti, 0.0);
                for row in e.chunks_exact(ti) {
                    for (a, &x) in sum.iter_mut().zip(row) {
                        *a += x;
                    }
                }
                for (t, row) in e.chunks_exact_mut(ti).enumerate() {
                    for (x, &total) in row.iter_mut().zip(sum.iter()) {
                        *x /= total;
                    }
                    for (i, &x) in row.iter().enumerate() {
                        f[(i * to + t) * s + sp] = x;
                    }
                }
            }
            rq.fused().apply_raw(0, f, logits);
        }
        UnitMode::Integer => {
            let format = QFormat::with_frac(dr);
            for i in 0..ti {
                for sp in 0..s {
                    let lane = || (0..to).map(|t| (i * to + t) * s + sp);
                    col.clear();
                    col.extend(lane().map(|x| logits[x]));
                    int_softmax(col, format);
                    for (x, &v) in lane().zip(col.iter()) {
                        logits[x] = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_capsnet::QuantCtx;
    use qcn_fixed::RoundingScheme;
    use qcn_tensor::Tensor;

    #[test]
    fn float_exact_softmax_matches_tensor_op() {
        // [1, ti, to, 1, s] logits on the Q1.6 grid.
        let (ti, to, s) = (3, 4, 5);
        let raws: Vec<i64> = (0..ti * to * s)
            .map(|i| ((i * 13) % 120) as i64 - 60)
            .collect();
        let scheme = RoundingScheme::Stochastic;
        let f = Tensor::from_vec(
            raws.iter().map(|&r| raw_to_f32(r, 6)).collect(),
            [1, ti, to, 1, s],
        )
        .unwrap();
        let want = QuantCtx::new(scheme, 3).round(f.softmax_axis(2), Some(6));
        // exp(−k/64) at every on-grid difference of Q1.6 logits.
        let table: Vec<f32> = (0..=128).map(|k| (0.0 - k as f32 / 64.0).exp()).collect();
        for exp in [None, Some(table.as_slice())] {
            let mut ints = raws.clone();
            let rq = KeyedRequant::bind(&mut QuantCtx::new(scheme, 3), 6, 6, ints.len());
            let scratch = &mut UnitScratch::default();
            let mode = UnitMode::FloatExact;
            softmax_over_types(mode, &mut ints, ti, to, s, 6, exp, &rq, scratch);
            let got: Vec<f32> = ints.iter().map(|&r| raw_to_f32(r, 6)).collect();
            assert_eq!(got, want.data(), "table {}", exp.is_some());
        }
    }

    #[test]
    fn float_exact_squash_matches_reference() {
        let (d, s) = (4, 3);
        let raws: Vec<i64> = (0..2 * d * s).map(|i| ((i * 7) % 60) as i64 - 30).collect();
        let mut ints = raws.clone();
        let scheme = RoundingScheme::Stochastic;
        let rq = KeyedRequant::bind(&mut QuantCtx::new(scheme, 5), 5, 4, ints.len());
        squash_blocks_requant(
            UnitMode::FloatExact,
            &mut ints,
            5,
            d,
            s,
            &rq,
            &mut UnitScratch::default(),
        );
        // Reference: squash then round the whole tensor at the same site,
        // via the public tensor ops (squash_axis matches the block squash
        // bitwise).
        let f =
            Tensor::from_vec(raws.iter().map(|&r| raw_to_f32(r, 5)).collect(), [2, d, s]).unwrap();
        let want = QuantCtx::new(scheme, 5).round(f.squash_axis(1), Some(4));
        let got: Vec<f32> = ints.iter().map(|&r| raw_to_f32(r, 4)).collect();
        assert_eq!(got, want.data());
    }

    #[test]
    fn integer_softmax_stays_on_grid_and_normalizes() {
        let (ti, to, s) = (2, 5, 2);
        let mut ints: Vec<i64> = (0..ti * to * s)
            .map(|i| (i as i64 * 9) % 100 - 50)
            .collect();
        let rq = KeyedRequant::bind(&mut QuantCtx::new(RoundingScheme::Truncation, 0), 8, 8, 0);
        let scratch = &mut UnitScratch::default();
        softmax_over_types(
            UnitMode::Integer,
            &mut ints,
            ti,
            to,
            s,
            8,
            None,
            &rq,
            scratch,
        );
        for i in 0..ti {
            for sp in 0..s {
                let total: i64 = (0..to).map(|j| ints[(i * to + j) * s + sp]).sum();
                // Coupling coefficients sum to 1 within to·ε.
                assert!(
                    (total - (1 << 8)).unsigned_abs() <= to as u64,
                    "sum {total}"
                );
            }
        }
    }
}
