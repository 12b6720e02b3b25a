//! The CapsNet layer zoo: conv stem, PrimaryCaps, fully-connected capsules
//! with dynamic routing, and the DeepCaps convolutional capsule layers.
//!
//! Every layer provides three entry points:
//!
//! * `forward(graph, x, pvars)` — training-time pass building autograd
//!   nodes (full backprop through unrolled routing);
//! * `infer(x, layer_quant, ctx)` — inference with the quantization hooks
//!   of paper Fig. 9 (activations at `Qa`, routing data at `Q_DR`);
//! * `quantize_weights(frac, ctx)` — one-shot weight rounding (`Qw`).

mod capsfc;
mod conv;
mod convcaps;
pub mod dense;
mod primary;

pub use capsfc::CapsFc;
pub use conv::{Activation, Conv2dLayer};
pub use convcaps::{ConvCaps, ConvCapsRouting};
pub use primary::PrimaryCaps;

use crate::quant::{LayerQuant, QuantCtx};
use qcn_fixed::FusedQuant;
use qcn_tensor::{parallel, Tensor};

/// Inference-path capsule vote computation:
/// `û[b,i,j,·] = u[b,i,·] · W[i,j,·,·]` (paper Fig. 6, step 1).
///
/// Mirrors the autograd `caps_votes` op for graph-free quantized inference.
/// Parallelized over (batch, input-capsule) blocks; each `û[b,i,·,·]` panel
/// is produced by exactly one worker with an `d`-ascending accumulation, so
/// the result is bit-identical for every thread count. There is no
/// `u[d] == 0.0` skip: it blocked vectorization and silently dropped
/// `0 × NaN` / `0 × ∞` contributions.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn caps_votes_infer(input: &Tensor, weight: &Tensor) -> Tensor {
    caps_votes_infer_fused(input, weight, None)
}

/// [`caps_votes_infer`] with an optional fused quantization epilogue: each
/// finished `û[b,i,·,·]` panel is rounded in place by the worker that
/// produced it, while still cache-hot. The epilogue's stochastic stream is
/// keyed by global element position, so the result is bit-identical to
/// [`caps_votes_infer`] followed by a sequential
/// [`FusedQuant::quantize_inplace`] pass, for every thread count.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn caps_votes_infer_fused(input: &Tensor, weight: &Tensor, fq: Option<&FusedQuant>) -> Tensor {
    assert_eq!(input.rank(), 3, "caps votes input must be [b, i, di]");
    assert_eq!(weight.rank(), 4, "caps votes weight must be [i, j, di, dj]");
    let (b, ni, di) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (wi, nj, wdi, dj) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    assert_eq!(ni, wi, "caps votes capsule-count mismatch");
    assert_eq!(di, wdi, "caps votes capsule-dimension mismatch");
    let mut out = Tensor::zeros([b, ni, nj, dj]);
    if nj * dj == 0 {
        return out;
    }
    let (inp, w) = (input.data(), weight.data());
    // One item = one (batch, input-capsule) pair producing nj·dj outputs.
    let min_items = (16_384 / (di * nj * dj).max(1)).max(1);
    parallel::par_chunks_mut(out.data_mut(), nj * dj, min_items, |item, panel| {
        let (bi, ii) = (item / ni, item % ni);
        let u = &inp[(bi * ni + ii) * di..(bi * ni + ii + 1) * di];
        for jj in 0..nj {
            let w_base = (ii * nj + jj) * di * dj;
            let o_row = &mut panel[jj * dj..(jj + 1) * dj];
            for (d, &ud) in u.iter().enumerate() {
                let w_row = &w[w_base + d * dj..w_base + (d + 1) * dj];
                for k in 0..dj {
                    o_row[k] = qcn_tensor::fmadd(ud, w_row[k], o_row[k]);
                }
            }
        }
        if let Some(fq) = fq {
            fq.apply(item * nj * dj, panel);
        }
    });
    out
}

/// Squashes contiguous `[d, s]` blocks of `data` in place — the packed
/// layouts used by [`PrimaryCaps`] capsule lists (`s = 1`), [`ConvCaps`]
/// feature maps (`s = h·w`), and the routing preactivations (`s` = spatial
/// positions). Per block: `n²[sp] = Σ_d x[d,sp]²` folded `d`-ascending, then
/// every element is scaled by `n²/(1+n²)/√(n²+ε)` — exactly the expression
/// and fold order of [`Tensor::squash_axis`], so results are bitwise
/// identical to the tensor-op composition.
///
/// When `fq` is set, each finished block is additionally rounded through
/// the position-keyed fused epilogue before the next block is touched.
///
/// # Panics
///
/// Panics when `data` does not divide into `[d, s]` blocks.
pub fn squash_blocks_fused(data: &mut [f32], d: usize, s: usize, fq: Option<&FusedQuant>) {
    let block = d * s;
    assert!(block > 0, "squash block must be non-empty");
    assert_eq!(data.len() % block, 0, "data must divide into [d, s] blocks");
    let mut n2 = vec![0.0f32; s];
    let mut scale = vec![0.0f32; s];
    for (bi, blk) in data.chunks_mut(block).enumerate() {
        n2.iter_mut().for_each(|v| *v = 0.0);
        for row in blk.chunks(s) {
            for (acc, &x) in n2.iter_mut().zip(row) {
                *acc += x * x;
            }
        }
        for (sc, &n2) in scale.iter_mut().zip(&n2) {
            *sc = n2 / (1.0 + n2) / (n2 + qcn_tensor::nn::EPS).sqrt();
        }
        for row in blk.chunks_mut(s) {
            for (x, &sc) in row.iter_mut().zip(&scale) {
                *x *= sc;
            }
        }
        if let Some(fq) = fq {
            fq.apply(bi * block, blk);
        }
    }
}

/// Routing step 4, `s[b,·,j,·,·] = Σ_i c[b,i,j]·û[b,i,j,·,·]`, with the
/// Q_DR rounding applied to each `[Do, S]` output row as soon as it is
/// complete. Accumulation is zero-initialised and `i`-ascending, and the
/// epilogue is position-keyed, so the result is bitwise identical to the
/// tensor-op composition `(votes * expand_to(c)).sum_axis_keepdim(1)`
/// rounded afterwards — without materialising the vote-sized product.
fn weighted_sum_rounded(votes: &Tensor, c: &Tensor, fq: Option<&FusedQuant>) -> Tensor {
    let d = votes.dims();
    let (b, ti, to, dd, s) = (d[0], d[1], d[2], d[3], d[4]);
    let mut out = Tensor::zeros([b, 1, to, dd, s]);
    let (v, cdat, o) = (votes.data(), c.data(), out.data_mut());
    let row = dd * s;
    for bi in 0..b {
        for j in 0..to {
            let start = (bi * to + j) * row;
            let orow = &mut o[start..start + row];
            for i in 0..ti {
                let idx = (bi * ti + i) * to + j;
                let vrow = &v[idx * row..(idx + 1) * row];
                let crow = &cdat[idx * s..(idx + 1) * s];
                for k in 0..dd {
                    for sp in 0..s {
                        orow[k * s + sp] += vrow[k * s + sp] * crow[sp];
                    }
                }
            }
            if let Some(fq) = fq {
                fq.apply(start, orow);
            }
        }
    }
    out
}

/// Routing step 6, `a[b,i,j,·,·] = Σ_d û[b,i,j,d,·]·v[b,·,j,d,·]`, with the
/// Q_DR rounding applied to each finished `[To, S]` agreement row —
/// bitwise identical to `(votes * expand_to(v)).sum_axis_keepdim(3)`
/// rounded afterwards.
fn agreement_rounded(votes: &Tensor, v: &Tensor, fq: Option<&FusedQuant>) -> Tensor {
    let d = votes.dims();
    let (b, ti, to, dd, s) = (d[0], d[1], d[2], d[3], d[4]);
    let mut out = Tensor::zeros([b, ti, to, 1, s]);
    let (vo, vd, o) = (votes.data(), v.data(), out.data_mut());
    for bi in 0..b {
        for i in 0..ti {
            let obase = (bi * ti + i) * to * s;
            for j in 0..to {
                let vote = &vo[((bi * ti + i) * to + j) * dd * s..];
                let vrow = &vd[(bi * to + j) * dd * s..];
                let orow = &mut o[obase + j * s..obase + (j + 1) * s];
                for k in 0..dd {
                    for sp in 0..s {
                        orow[sp] += vote[k * s + sp] * vrow[k * s + sp];
                    }
                }
            }
            if let Some(fq) = fq {
                fq.apply(obase, &mut o[obase..obase + to * s]);
            }
        }
    }
    out
}

/// The dynamic-routing loop shared by [`CapsFc`] and [`ConvCapsRouting`]
/// inference, on votes `[b, Ti, To, Do, S]` (CapsFc uses `S = 1`):
/// coupling softmax over `To`, vote aggregation over `Ti`, squash along
/// `Do`, with the Q_DR / Qa rounding points of paper Fig. 9. `votes` must
/// already be quantized at Q_DR. Returns `[b, 1, To, Do, S]`.
pub(crate) fn dynamic_routing(
    votes: &Tensor,
    iters: usize,
    lq: &LayerQuant,
    ctx: &mut QuantCtx,
) -> Tensor {
    let d = votes.dims();
    let (b, ti, to, dd, s) = (d[0], d[1], d[2], d[3], d[4]);
    let dr = lq.effective_dr_frac();
    let mut logits = Tensor::zeros([b, ti, to, 1, s]);
    let mut v = Tensor::zeros([b, 1, to, dd, s]);
    for iter in 0..iters {
        // c = softmax(b) — both operand and result at Q_DR.
        let c = ctx.round(logits.softmax_axis(2), dr);
        // s = Σ_i c·û, quantized at Q_DR *before* the squash unit; the
        // fused loop rounds each row as it leaves the accumulator.
        let fq = ctx.fused(dr, v.len());
        let mut s_pre = weighted_sum_rounded(votes, &c, fq.as_ref());
        let last = iter + 1 == iters;
        // Intermediate v stays at Q_DR; the final output is the layer
        // activation and uses Qa.
        let fq = ctx.fused(if last { lq.act_frac } else { dr }, v.len());
        squash_blocks_fused(s_pre.data_mut(), dd, s, fq.as_ref());
        v = s_pre;
        if !last {
            let fq = ctx.fused(dr, logits.len());
            let agreement = agreement_rounded(votes, &v, fq.as_ref());
            logits = ctx.round(&logits + &agreement, dr);
        }
    }
    v
}

/// Runs [`dynamic_routing`] independently per sample, dispatched through
/// the thread pool. The routing loop claims one rounding point of the
/// stage and numbers its own sites inside it; each sample routes with its
/// own [`QuantCtx::sample`] view, which rounds exactly as the whole batch
/// would — so the result is bit-identical to whole-batch routing for
/// every scheme and every thread count (routing never mixes samples).
pub(crate) fn route_per_sample(
    votes: &Tensor,
    iters: usize,
    lq: &LayerQuant,
    ctx: &mut QuantCtx,
) -> Tensor {
    let d = votes.dims();
    let (b, ti, to, dd, s) = (d[0], d[1], d[2], d[3], d[4]);
    let per_sample = ti * to * dd * s;
    let out_len = to * dd * s;
    let mut out = Tensor::zeros([b, 1, to, dd, s]);
    let routing = ctx.nested();
    if out_len == 0 {
        return out;
    }
    let vdata = votes.data();
    parallel::par_chunks_mut(out.data_mut(), out_len, 1, |sample, chunk| {
        let votes_s = Tensor::from_vec(
            vdata[sample * per_sample..(sample + 1) * per_sample].to_vec(),
            [1, ti, to, dd, s],
        )
        .expect("per-sample vote slice is consistent");
        let v = dynamic_routing(&votes_s, iters, lq, &mut routing.sample(sample));
        chunk.copy_from_slice(v.data());
    });
    out
}

/// Flattens a packed conv-caps tensor `[b, types·dim, h, w]` into a capsule
/// list `[b, types·h·w, dim]` for a following [`CapsFc`] layer.
///
/// # Panics
///
/// Panics when the channel count is not divisible by `dim`.
pub fn flatten_caps(x: &Tensor, dim: usize) -> Tensor {
    let (b, ch, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    assert_eq!(
        ch % dim,
        0,
        "channels {ch} not divisible by capsule dim {dim}"
    );
    let types = ch / dim;
    x.reshape([b, types, dim, h * w])
        .expect("packed layout splits into capsules")
        .permute(&[0, 1, 3, 2])
        .reshape([b, types * h * w, dim])
        .expect("capsule list repacks")
}

/// Graph version of [`flatten_caps`] for the training path.
pub fn flatten_caps_graph(
    g: &mut qcn_autograd::Graph,
    x: qcn_autograd::Var,
    dim: usize,
) -> qcn_autograd::Var {
    let dims = g.value(x).dims().to_vec();
    let (b, ch, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(
        ch % dim,
        0,
        "channels {ch} not divisible by capsule dim {dim}"
    );
    let types = ch / dim;
    let grouped = g.reshape(x, [b, types, dim, h * w]);
    let moved = g.permute(grouped, &[0, 1, 3, 2]);
    g.reshape(moved, [b, types * h * w, dim])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_autograd::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn caps_votes_matches_manual_computation() {
        let input = Tensor::from_fn([1, 2, 2], |i| (i[1] * 2 + i[2] + 1) as f32);
        let weight = Tensor::from_fn([2, 2, 2, 3], |i| {
            (i[0] * 12 + i[1] * 6 + i[2] * 3 + i[3]) as f32 * 0.1
        });
        let votes = caps_votes_infer(&input, &weight);
        assert_eq!(votes.dims(), &[1, 2, 2, 3]);
        // û[0,1,0,2] = Σ_d u[0,1,d]·W[1,0,d,2]
        let expected = 3.0 * weight.get(&[1, 0, 0, 2]) + 4.0 * weight.get(&[1, 0, 1, 2]);
        assert!((votes.get(&[0, 1, 0, 2]) - expected).abs() < 1e-6);
    }

    #[test]
    fn caps_votes_matches_autograd_op() {
        let mut rng = StdRng::seed_from_u64(0);
        let input = Tensor::rand_uniform([2, 3, 4], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform([3, 5, 4, 2], -1.0, 1.0, &mut rng);
        let direct = caps_votes_infer(&input, &weight);
        let mut g = Graph::new();
        let iv = g.input(input);
        let wv = g.input(weight);
        let votes = g.caps_votes(iv, wv);
        assert_eq!(g.value(votes), &direct);
    }

    #[test]
    fn flatten_caps_layout() {
        // Two types of 2-D capsules on a 2×1 grid.
        let x = Tensor::from_fn([1, 4, 2, 1], |i| (i[1] * 10 + i[2]) as f32);
        let caps = flatten_caps(&x, 2);
        assert_eq!(caps.dims(), &[1, 4, 2]);
        // Capsule (type 0, pos 0) = channels {0, 1} at position 0.
        assert_eq!(caps.get(&[0, 0, 0]), x.get(&[0, 0, 0, 0]));
        assert_eq!(caps.get(&[0, 0, 1]), x.get(&[0, 1, 0, 0]));
        // Capsule (type 1, pos 1) = channels {2, 3} at position 1.
        assert_eq!(caps.get(&[0, 3, 0]), x.get(&[0, 2, 1, 0]));
        assert_eq!(caps.get(&[0, 3, 1]), x.get(&[0, 3, 1, 0]));
    }

    #[test]
    fn flatten_caps_graph_matches_tensor_version() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform([2, 6, 3, 3], -1.0, 1.0, &mut rng);
        let direct = flatten_caps(&x, 3);
        let mut g = Graph::new();
        let xv = g.input(x);
        let flat = flatten_caps_graph(&mut g, xv, 3);
        assert_eq!(g.value(flat), &direct);
    }
}
