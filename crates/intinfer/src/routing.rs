//! The integer dynamic-routing loop (paper Fig. 6 on raw fixed-point),
//! mirroring `qcn_capsnet::layers::dynamic_routing` site for site.
//!
//! Votes enter on the `Q_DR` grid. Per iteration: coupling softmax over
//! output types (rounded to Q_DR), weighted vote aggregation (products at
//! `2·Q_DR` fractional bits, requantized to Q_DR once the sums are
//! complete), squash, and a sequential requantization to Q_DR
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

/// Routes one sample. `votes` is the whole batch's capsule-major vote
/// tensor `[ti, b, to, dd, s]` at `dr` fractional bits; this sample's
/// block for input type `i` is `votes[i·b + sample]`. Output `[to, dd, s]`
/// at `out_frac`.
fn dynamic_routing_raw(
    votes: &[i64],
    b: usize,
    sample: usize,
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
    debug_assert_eq!(votes.len(), ti * b * to * row);
    // The `[to, dd, s]` votes of input type `i` for this sample.
    let block = |i: usize| &votes[(i * b + sample) * to * row..(i * b + sample + 1) * to * row];
    let acc_frac = 2 * dr;
    let mut requant = |in_frac, out_frac, len| KeyedRequant::bind(ctx, in_frac, out_frac, len);
    let mut logits = vec![0i64; ti * to * s];
    let mut v = vec![0i64; to * row];
    for iter in 0..iters {
        // c = softmax(b) over output types — operand and result at Q_DR.
        let rq = requant(dr, dr, logits.len());
        let mut c = logits.clone();
        softmax_over_types(mode, &mut c, ti, to, s, dr, &rq);
        // s = Σ_i c·û: exact integer products at 2·Q_DR over each input
        // type's contiguous `[to, dd, s]` block, one coupling per `s`
        // lanes; the finished rows are requantized to Q_DR.
        let rq = requant(acc_frac, dr, v.len());
        let mut s_pre = vec![0i64; to * row];
        for i in 0..ti {
            let rows = s_pre.chunks_exact_mut(row).zip(block(i).chunks_exact(row));
            for (j, (orow, vrow)) in rows.enumerate() {
                let crow = &c[(i * to + j) * s..(i * to + j + 1) * s];
                if let [cv] = crow {
                    for (o, &u) in orow.iter_mut().zip(vrow) {
                        *o += u * cv;
                    }
                } else {
                    for (oc, uc) in orow.chunks_exact_mut(s).zip(vrow.chunks_exact(s)) {
                        for ((o, &u), &cv) in oc.iter_mut().zip(uc).zip(crow) {
                            *o += u * cv;
                        }
                    }
                }
            }
        }
        rq.apply_raw(0, &mut s_pre);
        let last = iter + 1 == iters;
        // Squash along Do; intermediate v stays at Q_DR, the final output
        // is the layer activation at Qa.
        let rq = requant(dr, if last { out_frac } else { dr }, v.len());
        squash_blocks_requant(mode, &mut s_pre, dr, dd, s, &rq);
        v = s_pre;
        if !last {
            // a = Σ_d û·v at 2·Q_DR over the contiguous `dd·s` row,
            // requantized per [to, s] row group.
            let rq = requant(acc_frac, dr, logits.len());
            let mut agreement = vec![0i64; ti * to * s];
            for i in 0..ti {
                let votes_i = block(i);
                let group = &mut agreement[i * to * s..(i + 1) * to * s];
                for j in 0..to {
                    let vote = &votes_i[j * row..(j + 1) * row];
                    let vrow = &v[j * row..(j + 1) * row];
                    let orow = &mut group[j * s..(j + 1) * s];
                    if let [o] = orow {
                        *o += vote.iter().zip(vrow).map(|(&u, &vv)| u * vv).sum::<i64>();
                    } else {
                        for (uc, vc) in vote.chunks_exact(s).zip(vrow.chunks_exact(s)) {
                            for ((o, &u), &vv) in orow.iter_mut().zip(uc).zip(vc) {
                                *o += u * vv;
                            }
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

/// Routes each sample of the capsule-major `votes` `[ti, b, to, dd, s]`
/// independently through the thread pool — the raw mirror of
/// `route_per_sample` in `qcn_capsnet::layers`: the routing claims one
/// nested rounding point and each sample runs on its `QuantCtx::sample`
/// view, so stochastic rounding is identical for every thread count and
/// batch composition. Returns `[b, 1, to, dd, s]` at `p.out_frac`.
pub(crate) fn route_per_sample_raw(
    votes: &IntTensor,
    p: RoutingSpec,
    mode: UnitMode,
    ctx: &mut QuantCtx,
) -> IntTensor {
    let b = votes.dims()[1];
    let out_len = p.to * p.dd * p.s;
    let mut out = IntTensor::zeros(vec![b, 1, p.to, p.dd, p.s], p.out_frac);
    let routing = ctx.nested();
    if out_len == 0 || b == 0 {
        return out;
    }
    let vdata = votes.data();
    parallel::par_chunks_mut(out.data_mut(), out_len, 1, |sample, chunk| {
        let v = dynamic_routing_raw(vdata, b, sample, p, mode, &mut routing.sample(sample));
        chunk.copy_from_slice(&v);
    });
    out
}
