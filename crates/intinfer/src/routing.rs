//! The integer dynamic-routing loop (paper Fig. 6 on raw fixed-point),
//! mirroring `qcn_capsnet::layers::dynamic_routing` site for site.
//!
//! Votes enter on the `Q_DR` grid. Per iteration: coupling softmax over
//! output types (rounded to Q_DR), weighted vote aggregation (products at
//! `2·Q_DR` fractional bits, requantized per output row to Q_DR as the
//! accumulator finishes), squash, and a sequential requantization to Q_DR
//! (or the layer's output width on the last iteration); between
//! iterations the agreement update accumulates at `2·Q_DR` and the logits
//! are re-rounded (clamping into Q1 range, as the reference's rounding
//! does). Every requantization claims its rounding point in the
//! reference's site order and draws from the same keyed stream, so
//! stochastic rounding is bit-identical too.

use crate::epilogue::KeyedRequant;
use crate::tensor::IntTensor;
use crate::units::{softmax_over_types, squash_blocks_requant, UnitMode};
use qcn_capsnet::QuantCtx;
use qcn_tensor::parallel;

/// Geometry and precisions of one routing dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoutingSpec {
    /// Routing iterations.
    pub iters: usize,
    /// Input capsule types `Ti`.
    pub ti: usize,
    /// Output capsule types `To`.
    pub to: usize,
    /// Output capsule dimensionality `Do`.
    pub dd: usize,
    /// Spatial positions `S` (1 for fully-connected routing).
    pub s: usize,
    /// `Q_DR` fractional bits of votes and routing intermediates.
    pub dr: u8,
    /// Fractional bits of the routed output (`Qa` of the layer).
    pub out_frac: u8,
}

/// Routes one sample: votes `[ti, to, dd, s]` at `dr` fractional bits in,
/// output `[to, dd, s]` at `out_frac` out.
fn dynamic_routing_raw(
    votes: &[i64],
    p: RoutingSpec,
    mode: UnitMode,
    ctx: &mut QuantCtx,
) -> Vec<i64> {
    let RoutingSpec {
        iters,
        ti,
        to,
        dd,
        s,
        dr,
        out_frac,
    } = p;
    let row = dd * s;
    debug_assert_eq!(votes.len(), ti * to * row);
    let acc_frac = 2 * dr;
    let mut requant = |in_frac, out_frac, len| KeyedRequant::bind(ctx, in_frac, out_frac, len);
    let mut logits = vec![0i64; ti * to * s];
    let mut v = vec![0i64; to * row];
    for iter in 0..iters {
        // c = softmax(b) over output types — operand and result at Q_DR.
        let rq = requant(dr, dr, logits.len());
        let mut c = logits.clone();
        softmax_over_types(mode, &mut c, ti, to, s, dr, &rq);
        // s = Σ_i c·û: exact integer products at 2·Q_DR, each output row
        // requantized to Q_DR as it leaves the accumulator.
        let rq = requant(acc_frac, dr, v.len());
        let mut s_pre = vec![0i64; to * row];
        for j in 0..to {
            let orow = &mut s_pre[j * row..(j + 1) * row];
            for i in 0..ti {
                let idx = i * to + j;
                let vrow = &votes[idx * row..(idx + 1) * row];
                let crow = &c[idx * s..(idx + 1) * s];
                for k in 0..dd {
                    for sp in 0..s {
                        orow[k * s + sp] += vrow[k * s + sp] * crow[sp];
                    }
                }
            }
            rq.apply_raw(j * row, orow);
        }
        let last = iter + 1 == iters;
        // Squash along Do; intermediate v stays at Q_DR, the final output
        // is the layer activation at Qa.
        let rq = requant(dr, if last { out_frac } else { dr }, v.len());
        squash_blocks_requant(mode, &mut s_pre, dr, dd, s, &rq);
        v = s_pre;
        if !last {
            // a = Σ_d û·v at 2·Q_DR, requantized per [to, s] row group.
            let rq = requant(acc_frac, dr, logits.len());
            let mut agreement = vec![0i64; ti * to * s];
            for i in 0..ti {
                let group = &mut agreement[i * to * s..(i + 1) * to * s];
                for j in 0..to {
                    let vote = &votes[(i * to + j) * row..(i * to + j + 1) * row];
                    let vrow = &v[j * row..(j + 1) * row];
                    let orow = &mut group[j * s..(j + 1) * s];
                    for k in 0..dd {
                        for sp in 0..s {
                            orow[sp] += vote[k * s + sp] * vrow[k * s + sp];
                        }
                    }
                }
                rq.apply_raw(i * to * s, group);
            }
            // b += a — the add is exact on the shared grid; the requant
            // clamps back into Q1.dr range, exactly like the reference's
            // rounding.
            for (l, &a) in logits.iter_mut().zip(&agreement) {
                *l += a;
            }
            requant(dr, dr, logits.len()).apply_raw(0, &mut logits);
        }
    }
    v
}

/// Routes each sample of `votes` `[b, ti, to, dd, s]` independently through
/// the thread pool — the raw mirror of `route_per_sample` in
/// `qcn_capsnet::layers`: the routing claims one nested rounding point and
/// each sample runs on its `QuantCtx::sample` view, so stochastic rounding
/// is identical for every thread count and batch composition. Returns
/// `[b, 1, to, dd, s]` at `p.out_frac`.
pub(crate) fn route_per_sample_raw(
    votes: &IntTensor,
    p: RoutingSpec,
    mode: UnitMode,
    ctx: &mut QuantCtx,
) -> IntTensor {
    let b = votes.dims()[0];
    let per_sample = p.ti * p.to * p.dd * p.s;
    let out_len = p.to * p.dd * p.s;
    let mut out = IntTensor::zeros(vec![b, 1, p.to, p.dd, p.s], p.out_frac);
    let routing = ctx.nested();
    if out_len == 0 || b == 0 {
        return out;
    }
    let vdata = votes.data();
    parallel::par_chunks_mut(out.data_mut(), out_len, 1, |sample, chunk| {
        let v = dynamic_routing_raw(
            &vdata[sample * per_sample..(sample + 1) * per_sample],
            p,
            mode,
            &mut routing.sample(sample),
        );
        chunk.copy_from_slice(&v);
    });
    out
}
