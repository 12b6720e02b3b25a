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
//!   exact order), rounds through the same keyed epilogue, and converts
//!   the on-grid result back to raw form. This mode is bit-identical to the reference end to
//!   end and models a deployment with a small float helper unit.
//! * [`UnitMode::Integer`] evaluates the units with the pure integer
//!   kernels of [`qcn_fixed::int_squash`] / [`qcn_fixed::int_softmax`]
//!   (integer square root, Q-format exponential) — no float anywhere, with
//!   the documented per-unit error bounds of a few output ulps.

use crate::epilogue::KeyedRequant;
use crate::tensor::{f32_to_raw, raw_to_f32};
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

/// The integer squash applied to one `[d, s]` block in place: each of the
/// `s` spatial columns is gathered, squashed with [`int_squash`] at the
/// block's precision, and scattered back.
fn squash_block_int(blk: &mut [i64], d: usize, s: usize, frac: u8) {
    // Two integer bits: squash outputs have length < 1, so the clamp never
    // engages (the reference applies no clamp here either).
    let format = QFormat::new(2, frac);
    let mut col = vec![0i64; d];
    for sp in 0..s {
        for k in 0..d {
            col[k] = blk[k * s + sp];
        }
        int_squash(&mut col, format);
        for k in 0..d {
            blk[k * s + sp] = col[k];
        }
    }
}

/// Squashes contiguous `[d, s]` blocks of raw values at `in_frac`
/// fractional bits and requantizes each finished block through the keyed
/// epilogue `rq` — float-exact mode runs the reference's
/// `squash_blocks_fused` on each dequantized block, in cache. On return
/// the data sits at `rq.out_frac()`.
pub(crate) fn squash_blocks_requant(
    mode: UnitMode,
    data: &mut [i64],
    in_frac: u8,
    d: usize,
    s: usize,
    rq: &KeyedRequant,
) {
    let block = d * s;
    assert!(block > 0, "squash block must be non-empty");
    assert_eq!(data.len() % block, 0, "data must divide into [d, s] blocks");
    let out_frac = rq.out_frac();
    let mut fblk = vec![0.0f32; block];
    for (bi, blk) in data.chunks_mut(block).enumerate() {
        match mode {
            UnitMode::FloatExact => {
                for (f, &r) in fblk.iter_mut().zip(blk.iter()) {
                    *f = raw_to_f32(r, in_frac);
                }
                squash_blocks_fused(&mut fblk, d, s, None);
                rq.fused().apply(bi * block, &mut fblk);
                for (o, &v) in blk.iter_mut().zip(&fblk) {
                    *o = f32_to_raw(v, out_frac);
                }
            }
            UnitMode::Integer => {
                squash_block_int(blk, d, s, in_frac);
                rq.apply_raw(bi * block, blk);
            }
        }
    }
}

/// The routing coupling softmax over output types, on one sample's logits
/// `[ti, to, s]` at `dr` fractional bits, rounded back onto the `dr` grid.
///
/// Float-exact mode replays `Tensor::softmax_axis(2)`'s reduction orders —
/// max folded ascending from −∞, `exp`, sum folded ascending from zero,
/// divide — then rounds the whole tensor through the site's keyed
/// epilogue `rq`, exactly as the reference rounds `softmax_axis(2)`'s
/// output. Integer mode runs [`int_softmax`] per `(i, sp)`
/// lane; its output is already on the `dr` grid, so `rq` goes unused.
pub(crate) fn softmax_over_types(
    mode: UnitMode,
    logits: &mut [i64],
    ti: usize,
    to: usize,
    s: usize,
    dr: u8,
    rq: &KeyedRequant,
) {
    assert_eq!(logits.len(), ti * to * s, "softmax logits shape mismatch");
    match mode {
        UnitMode::FloatExact => {
            let mut buf: Vec<f32> = logits.iter().map(|&r| raw_to_f32(r, dr)).collect();
            // One `(i, sp)` column of `to` logits at a time, its max and
            // sum held in registers.
            for lane in buf.chunks_exact_mut(to * s) {
                for sp in 0..s {
                    let col = || (sp..to * s).step_by(s);
                    let mx = col().fold(f32::NEG_INFINITY, |m, t| m.max(lane[t]));
                    for t in col() {
                        lane[t] = (lane[t] - mx).exp();
                    }
                    let sum = col().fold(0.0f32, |a, t| a + lane[t]);
                    for t in col() {
                        lane[t] /= sum;
                    }
                }
            }
            rq.fused().apply(0, &mut buf);
            for (o, &v) in logits.iter_mut().zip(&buf) {
                *o = f32_to_raw(v, dr);
            }
        }
        UnitMode::Integer => {
            let format = QFormat::with_frac(dr);
            let mut col = vec![0i64; to];
            for i in 0..ti {
                for sp in 0..s {
                    for j in 0..to {
                        col[j] = logits[(i * to + j) * s + sp];
                    }
                    int_softmax(&mut col, format);
                    for j in 0..to {
                        logits[(i * to + j) * s + sp] = col[j];
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
        let mut ints = raws.clone();
        let scheme = RoundingScheme::Stochastic;
        let rq = KeyedRequant::bind(&mut QuantCtx::new(scheme, 3), 6, 6, ints.len());
        softmax_over_types(UnitMode::FloatExact, &mut ints, ti, to, s, 6, &rq);
        let f = Tensor::from_vec(
            raws.iter().map(|&r| raw_to_f32(r, 6)).collect(),
            [1, ti, to, 1, s],
        )
        .unwrap();
        let want = QuantCtx::new(scheme, 3).round(f.softmax_axis(2), Some(6));
        let got: Vec<f32> = ints.iter().map(|&r| raw_to_f32(r, 6)).collect();
        assert_eq!(got, want.data());
    }

    #[test]
    fn float_exact_squash_matches_reference() {
        let (d, s) = (4, 3);
        let raws: Vec<i64> = (0..2 * d * s).map(|i| ((i * 7) % 60) as i64 - 30).collect();
        let mut ints = raws.clone();
        let scheme = RoundingScheme::Stochastic;
        let rq = KeyedRequant::bind(&mut QuantCtx::new(scheme, 5), 5, 4, ints.len());
        squash_blocks_requant(UnitMode::FloatExact, &mut ints, 5, d, s, &rq);
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
        softmax_over_types(UnitMode::Integer, &mut ints, ti, to, s, 8, &rq);
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
