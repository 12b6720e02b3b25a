//! Convolutional capsule layers from DeepCaps (paper Fig. 7): plain
//! `ConvCaps` (squash activation) and `ConvCapsRouting` (the "Conv3D caps"
//! skip layer that performs dynamic routing across input capsule types).

use crate::quant::{LayerQuant, QuantCtx};
use qcn_autograd::{Graph, Var};
use qcn_tensor::conv::{conv2d, conv2d_fused, Conv2dSpec};
use qcn_tensor::Tensor;
use rand::Rng;

/// A convolutional capsule layer without routing: a convolution over the
/// flattened `(types × dim)` channel layout followed by a squash along the
/// capsule dimension.
///
/// Input and output use the channel-packed layout
/// `[batch, types · dim, h, w]` so layers compose like ordinary convs.
#[derive(Debug, Clone)]
pub struct ConvCaps {
    weight: Tensor,
    bias: Tensor,
    spec: Conv2dSpec,
    out_types: usize,
    out_dim: usize,
    /// Skip the squash (used when this layer's output is summed with a
    /// parallel branch and squashed afterwards, as in DeepCaps blocks).
    squash: bool,
}

impl ConvCaps {
    /// Creates a ConvCaps layer with Xavier-uniform weights.
    ///
    /// `in_channels` is the packed `types·dim` channel count of the input.
    ///
    /// # Panics
    ///
    /// Panics when the capsule geometry is zero.
    pub fn new(
        in_channels: usize,
        out_types: usize,
        out_dim: usize,
        spec: Conv2dSpec,
        squash: bool,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            out_types > 0 && out_dim > 0,
            "capsule geometry must be positive"
        );
        let out_channels = out_types * out_dim;
        let fan_in = in_channels * spec.kh * spec.kw;
        let fan_out = out_channels * spec.kh * spec.kw;
        ConvCaps {
            weight: Tensor::xavier_uniform(
                [out_channels, in_channels, spec.kh, spec.kw],
                fan_in,
                fan_out,
                rng,
            ),
            bias: Tensor::zeros([out_channels]),
            spec,
            out_types,
            out_dim,
            squash,
        }
    }

    /// Total number of stored weights (kernel + bias).
    pub fn weight_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Parameters in registration order (weight, bias).
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    /// Mutable parameters in registration order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Training-time forward: `[b, ci, h, w] → [b, types·dim, oh, ow]`.
    pub fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        let dims = g.value(x).dims().to_vec();
        let (b, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let y = g.conv2d(x, pvars[0], Some(pvars[1]), self.spec);
        if !self.squash {
            return y;
        }
        let grouped = g.reshape(y, [b, self.out_types, self.out_dim, oh * ow]);
        let squashed = g.squash_axis(grouped, 2);
        g.reshape(squashed, [b, self.out_types * self.out_dim, oh, ow])
    }

    /// Inference with optional activation quantization after the squash.
    ///
    /// Without a squash the `Qa` rounding runs inside the convolution's
    /// writeback epilogue; with a squash it is fused into the per-capsule
    /// squash loop. Both are bit-identical to computing the full tensor and
    /// rounding it afterwards, for every thread count.
    pub fn infer(&self, x: &Tensor, lq: &LayerQuant, ctx: &mut QuantCtx) -> Tensor {
        let (b, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let fq = ctx.fused(lq.act_frac, b * self.out_types * self.out_dim * oh * ow);
        if !self.squash {
            return match fq {
                Some(fq) => {
                    let epi = move |off: usize, row: &mut [f32]| fq.apply(off, row);
                    conv2d_fused(x, &self.weight, Some(&self.bias), self.spec, Some(&epi))
                }
                None => conv2d(x, &self.weight, Some(&self.bias), self.spec),
            };
        }
        let y = conv2d(x, &self.weight, Some(&self.bias), self.spec);
        let mut grouped = y
            .reshape([b, self.out_types, self.out_dim, oh * ow])
            .expect("packed layout matches capsule grouping");
        crate::layers::squash_blocks_fused(grouped.data_mut(), self.out_dim, oh * ow, fq.as_ref());
        grouped
            .reshape([b, self.out_types * self.out_dim, oh, ow])
            .expect("squashed capsules repack")
    }

    /// Rounds the stored weights onto the `frac`-bit grid.
    pub fn quantize_weights(&mut self, frac: Option<u8>, ctx: &mut QuantCtx) {
        self.weight = ctx.round(self.weight.clone(), frac);
        self.bias = ctx.round(self.bias.clone(), frac);
    }

    /// Output activation count for one sample of `h × w` input.
    pub fn activation_count(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.spec.output_hw(h, w);
        self.out_types * self.out_dim * oh * ow
    }

    /// Spatial output size.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        self.spec.output_hw(h, w)
    }

    /// Packed output channel count (`types · dim`).
    pub fn out_channels(&self) -> usize {
        self.out_types * self.out_dim
    }
}

/// The DeepCaps routing capsule layer: per-input-type convolutions produce
/// votes, then dynamic routing selects output capsules *across input types*
/// at every spatial position (the paper's "Conv3D caps" block).
///
/// Input `[b, in_types · in_dim, h, w]`; output
/// `[b, out_types · out_dim, oh, ow]`.
#[derive(Debug, Clone)]
pub struct ConvCapsRouting {
    /// One conv kernel per input type: `[in_types, out_types·out_dim, in_dim, kh, kw]`.
    weight: Tensor,
    spec: Conv2dSpec,
    in_types: usize,
    in_dim: usize,
    out_types: usize,
    out_dim: usize,
    routing_iters: usize,
}

impl ConvCapsRouting {
    /// Creates the routing ConvCaps layer.
    ///
    /// # Panics
    ///
    /// Panics when the capsule geometry is zero or `routing_iters == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_types: usize,
        in_dim: usize,
        out_types: usize,
        out_dim: usize,
        spec: Conv2dSpec,
        routing_iters: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            in_types > 0 && in_dim > 0 && out_types > 0 && out_dim > 0,
            "capsule geometry must be positive"
        );
        assert!(routing_iters > 0, "at least one routing iteration required");
        let fan_in = in_dim * spec.kh * spec.kw;
        let fan_out = out_types * out_dim * spec.kh * spec.kw;
        ConvCapsRouting {
            weight: Tensor::xavier_uniform(
                [in_types, out_types * out_dim, in_dim, spec.kh, spec.kw],
                fan_in,
                fan_out,
                rng,
            ),
            spec,
            in_types,
            in_dim,
            out_types,
            out_dim,
            routing_iters,
        }
    }

    /// Total number of stored weights.
    pub fn weight_count(&self) -> usize {
        self.weight.len()
    }

    /// Parameters in registration order (vote kernel only).
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight]
    }

    /// Mutable parameters in registration order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight]
    }

    /// Returns `true`: this layer performs dynamic routing (framework step
    /// 4A applies).
    pub fn has_routing(&self) -> bool {
        true
    }

    /// Training-time forward with backprop through the routing loop.
    pub fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        let dims = g.value(x).dims().to_vec();
        let (b, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let s_spatial = oh * ow;
        // Votes per input type: [b, 1, To, Do, S] each, concatenated on
        // axis 1 → [b, Ti, To, Do, S].
        let mut per_type = Vec::with_capacity(self.in_types);
        for ti in 0..self.in_types {
            let x_t = g.slice_axis(x, 1, ti * self.in_dim, self.in_dim);
            let w_t = g.slice_axis(pvars[0], 0, ti, 1);
            let w_t = g.reshape(
                w_t,
                [
                    self.out_types * self.out_dim,
                    self.in_dim,
                    self.spec.kh,
                    self.spec.kw,
                ],
            );
            let v_t = g.conv2d(x_t, w_t, None, self.spec);
            let v_t = g.reshape(v_t, [b, 1, self.out_types, self.out_dim, s_spatial]);
            per_type.push(v_t);
        }
        let votes = g.concat(&per_type, 1);
        // Dynamic routing across input types at each spatial position.
        let mut logits = g.constant(Tensor::zeros([
            b,
            self.in_types,
            self.out_types,
            1,
            s_spatial,
        ]));
        let mut v = votes;
        for iter in 0..self.routing_iters {
            let c = g.softmax_axis(logits, 2);
            let weighted = g.mul(votes, c);
            let s = g.sum_axis_keepdim(weighted, 1); // [b,1,To,Do,S]
            v = g.squash_axis(s, 3);
            if iter + 1 < self.routing_iters {
                let prod = g.mul(votes, v);
                let agreement = g.sum_axis_keepdim(prod, 3);
                logits = g.add(logits, agreement);
            }
        }
        g.reshape(v, [b, self.out_types * self.out_dim, oh, ow])
    }

    /// Quantized inference mirroring [`CapsFc::infer`]'s rounding points.
    ///
    /// [`CapsFc::infer`]: crate::layers::CapsFc::infer
    pub fn infer(&self, x: &Tensor, lq: &LayerQuant, ctx: &mut QuantCtx) -> Tensor {
        let (b, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let s_spatial = oh * ow;
        let dr = lq.effective_dr_frac();
        // Build votes [b, Ti, To, Do, S] by stacking per-type convs. Each
        // per-type conv rounds its outputs at Q_DR in its own writeback
        // epilogue (one decorrelated stream per type), so the assembled
        // votes are already quantized.
        let mut votes = Tensor::zeros([b, self.in_types, self.out_types, self.out_dim, s_spatial]);
        for ti in 0..self.in_types {
            let x_t = x.slice_axis(1, ti * self.in_dim, self.in_dim);
            let w_t = self
                .weight
                .slice_axis(0, ti, 1)
                .reshape([
                    self.out_types * self.out_dim,
                    self.in_dim,
                    self.spec.kh,
                    self.spec.kw,
                ])
                .expect("per-type kernel reshape");
            // [b, To·Do, oh, ow]
            let v_t = match ctx.fused(dr, b * self.out_types * self.out_dim * s_spatial) {
                Some(fq) => {
                    let epi = move |off: usize, row: &mut [f32]| fq.apply(off, row);
                    conv2d_fused(&x_t, &w_t, None, self.spec, Some(&epi))
                }
                None => conv2d(&x_t, &w_t, None, self.spec),
            };
            for bi in 0..b {
                let src = &v_t.data()[bi * self.out_types * self.out_dim * s_spatial
                    ..(bi + 1) * self.out_types * self.out_dim * s_spatial];
                let dst_base =
                    (bi * self.in_types + ti) * self.out_types * self.out_dim * s_spatial;
                votes.data_mut()[dst_base..dst_base + src.len()].copy_from_slice(src);
            }
        }
        // Route each sample independently through the thread pool (shared
        // loop with CapsFc; bit-identical for every thread count).
        let v = crate::layers::route_per_sample(&votes, self.routing_iters, lq, ctx);
        v.reshape([b, self.out_types * self.out_dim, oh, ow])
            .expect("routing output repacks")
    }

    /// Rounds the stored weights onto the `frac`-bit grid.
    pub fn quantize_weights(&mut self, frac: Option<u8>, ctx: &mut QuantCtx) {
        self.weight = ctx.round(self.weight.clone(), frac);
    }

    /// Output activation count for one sample of `h × w` input.
    pub fn activation_count(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.spec.output_hw(h, w);
        self.out_types * self.out_dim * oh * ow
    }

    /// Spatial output size.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        self.spec.output_hw(h, w)
    }

    /// Packed output channel count (`types · dim`).
    pub fn out_channels(&self) -> usize {
        self.out_types * self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_fixed::RoundingScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp_ctx() -> QuantCtx {
        QuantCtx::new(RoundingScheme::Truncation, 0)
    }

    fn input(b: usize, ch: usize, side: usize) -> Tensor {
        let mut rng = StdRng::seed_from_u64(11);
        Tensor::rand_uniform([b, ch, side, side], -0.5, 0.5, &mut rng)
    }

    #[test]
    fn convcaps_shapes_and_lengths() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = ConvCaps::new(8, 4, 4, Conv2dSpec::new(3, 3, 2, 1), true, &mut rng);
        let x = input(2, 8, 8);
        let y = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        assert_eq!(y.dims(), &[2, 16, 4, 4]);
        // Squashed: every capsule's length < 1.
        let caps = y.reshape([2, 4, 4, 16]).unwrap();
        let lengths = caps.norm_axis(2);
        assert!(lengths.data().iter().all(|&l| l < 1.0));
    }

    #[test]
    fn convcaps_forward_matches_infer() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = ConvCaps::new(6, 3, 4, Conv2dSpec::new(3, 3, 1, 1), true, &mut rng);
        let x = input(1, 6, 6);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let pvars: Vec<_> = layer
            .params()
            .iter()
            .map(|p| g.input((*p).clone()))
            .collect();
        let y = layer.forward(&mut g, xv, &pvars);
        let inferred = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        assert!((g.value(y) - &inferred).max_abs() < 1e-5);
    }

    #[test]
    fn convcaps_no_squash_is_plain_conv() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = ConvCaps::new(4, 2, 4, Conv2dSpec::new(3, 3, 1, 1), false, &mut rng);
        let x = input(1, 4, 5);
        let y = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        let direct = conv2d(&x, &layer.weight, Some(&layer.bias), layer.spec);
        assert_eq!(y, direct);
    }

    #[test]
    fn routing_layer_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = ConvCapsRouting::new(4, 4, 2, 8, Conv2dSpec::new(3, 3, 2, 1), 3, &mut rng);
        let x = input(2, 16, 8);
        let y = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        assert_eq!(y.dims(), &[2, 16, 4, 4]);
    }

    #[test]
    fn routing_forward_matches_infer() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = ConvCapsRouting::new(2, 4, 2, 4, Conv2dSpec::new(3, 3, 1, 1), 3, &mut rng);
        let x = input(1, 8, 5);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let pvars: Vec<_> = layer
            .params()
            .iter()
            .map(|p| g.input((*p).clone()))
            .collect();
        let y = layer.forward(&mut g, xv, &pvars);
        let inferred = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        assert!((g.value(y) - &inferred).max_abs() < 1e-5);
    }

    #[test]
    fn routing_gradients_reach_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = ConvCapsRouting::new(2, 4, 2, 4, Conv2dSpec::new(3, 3, 1, 1), 2, &mut rng);
        let x = input(1, 8, 4);
        let mut g = Graph::new();
        let xv = g.input(x);
        let pvars: Vec<_> = layer
            .params()
            .iter()
            .map(|p| g.input((*p).clone()))
            .collect();
        let y = layer.forward(&mut g, xv, &pvars);
        let sq = g.square(y);
        let loss = g.sum_all(sq);
        g.backward(loss);
        assert!(g.grad(pvars[0]).unwrap().max_abs() > 0.0);
        assert!(g.grad(xv).unwrap().max_abs() > 0.0);
    }

    #[test]
    fn routing_dr_quantization_degrades_with_fewer_bits() {
        let mut rng = StdRng::seed_from_u64(6);
        let layer = ConvCapsRouting::new(2, 4, 2, 4, Conv2dSpec::new(3, 3, 1, 1), 3, &mut rng);
        let x = input(2, 8, 5);
        let fp = layer.infer(&x, &LayerQuant::full_precision(), &mut fp_ctx());
        let err_at = |bits: u8| {
            let lq = LayerQuant {
                dr_frac: Some(bits),
                ..LayerQuant::full_precision()
            };
            (&fp - &layer.infer(&x, &lq, &mut fp_ctx())).max_abs()
        };
        assert!(err_at(8) < err_at(2));
    }
}
