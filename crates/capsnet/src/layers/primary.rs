//! The PrimaryCaps layer (L2 of ShallowCaps): a convolution whose output
//! channels are grouped into capsule vectors and squashed.

use crate::quant::{LayerQuant, QuantCtx};
use qcn_autograd::{Graph, Var};
use qcn_tensor::conv::{conv2d, Conv2dSpec};
use qcn_tensor::Tensor;
use rand::Rng;

/// PrimaryCaps: convolution → capsule grouping → squash (paper §II-A, L2).
///
/// The convolution produces `caps_types × caps_dim` channels; each spatial
/// position of each type becomes one `caps_dim`-dimensional capsule. The
/// output is `[batch, caps_types · oh · ow, caps_dim]`.
#[derive(Debug, Clone)]
pub struct PrimaryCaps {
    weight: Tensor,
    bias: Tensor,
    spec: Conv2dSpec,
    caps_types: usize,
    caps_dim: usize,
}

impl PrimaryCaps {
    /// Creates a PrimaryCaps layer with Xavier-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics when `caps_types` or `caps_dim` is zero.
    pub fn new(
        in_channels: usize,
        caps_types: usize,
        caps_dim: usize,
        spec: Conv2dSpec,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            caps_types > 0 && caps_dim > 0,
            "capsule geometry must be positive"
        );
        let out_channels = caps_types * caps_dim;
        let fan_in = in_channels * spec.kh * spec.kw;
        let fan_out = out_channels * spec.kh * spec.kw;
        PrimaryCaps {
            weight: Tensor::xavier_uniform(
                [out_channels, in_channels, spec.kh, spec.kw],
                fan_in,
                fan_out,
                rng,
            ),
            bias: Tensor::zeros([out_channels]),
            spec,
            caps_types,
            caps_dim,
        }
    }

    /// Capsule vector dimensionality.
    pub fn caps_dim(&self) -> usize {
        self.caps_dim
    }

    /// Number of capsules produced for an `h × w` input.
    pub fn num_caps(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.spec.output_hw(h, w);
        self.caps_types * oh * ow
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

    /// Training-time forward. Returns capsules `[batch, num_caps, caps_dim]`.
    pub fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        let dims = g.value(x).dims().to_vec();
        let (b, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let y = g.conv2d(x, pvars[0], Some(pvars[1]), self.spec);
        // [b, T·D, oh, ow] → [b, T, D, oh·ow] → [b, T, oh·ow, D] → caps.
        let grouped = g.reshape(y, [b, self.caps_types, self.caps_dim, oh * ow]);
        let moved = g.permute(grouped, &[0, 1, 3, 2]);
        let caps = g.reshape(moved, [b, self.caps_types * oh * ow, self.caps_dim]);
        g.squash_axis(caps, 2)
    }

    /// Inference with optional activation quantization (applied to the
    /// squashed capsule output).
    ///
    /// The squash and the `Qa` rounding run fused, one capsule block at a
    /// time; the rounding stream is position-keyed, so the result is
    /// bit-identical to squashing the whole tensor and rounding it in a
    /// second pass.
    pub fn infer(&self, x: &Tensor, lq: &LayerQuant, ctx: &mut QuantCtx) -> Tensor {
        let (b, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (oh, ow) = self.spec.output_hw(h, w);
        let y = conv2d(x, &self.weight, Some(&self.bias), self.spec);
        let mut caps = y
            .reshape([b, self.caps_types, self.caps_dim, oh * ow])
            .expect("conv output matches capsule grouping")
            .permute(&[0, 1, 3, 2])
            .reshape([b, self.caps_types * oh * ow, self.caps_dim])
            .expect("permuted capsules match flat shape");
        let fq = ctx.fused(lq.act_frac, caps.len());
        crate::layers::squash_blocks_fused(caps.data_mut(), self.caps_dim, 1, fq.as_ref());
        caps
    }

    /// Rounds the stored weights onto the `frac`-bit grid.
    pub fn quantize_weights(&mut self, frac: Option<u8>, ctx: &mut QuantCtx) {
        self.weight = ctx.round(self.weight.clone(), frac);
        self.bias = ctx.round(self.bias.clone(), frac);
    }

    /// Output activation count for one sample of `h × w` input.
    pub fn activation_count(&self, h: usize, w: usize) -> usize {
        self.num_caps(h, w) * self.caps_dim
    }

    /// Spatial output size.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        self.spec.output_hw(h, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_fixed::RoundingScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> PrimaryCaps {
        let mut rng = StdRng::seed_from_u64(0);
        PrimaryCaps::new(4, 3, 4, Conv2dSpec::new(3, 3, 2, 0), &mut rng)
    }

    #[test]
    fn output_shape_is_capsule_list() {
        let layer = layer();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform([2, 4, 7, 7], 0.0, 1.0, &mut rng);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let caps = layer.infer(&x, &LayerQuant::full_precision(), &mut ctx);
        // (7-3)/2+1 = 3 → 3 types × 9 positions = 27 capsules of dim 4.
        assert_eq!(caps.dims(), &[2, 27, 4]);
        assert_eq!(layer.num_caps(7, 7), 27);
    }

    #[test]
    fn capsule_lengths_below_one() {
        let layer = layer();
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_uniform([1, 4, 7, 7], 0.0, 1.0, &mut rng);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let caps = layer.infer(&x, &LayerQuant::full_precision(), &mut ctx);
        let lengths = caps.norm_axis(2);
        assert!(lengths.data().iter().all(|&l| l < 1.0));
    }

    #[test]
    fn forward_matches_infer_in_fp32() {
        let layer = layer();
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform([2, 4, 7, 7], 0.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let pvars: Vec<_> = layer
            .params()
            .iter()
            .map(|p| g.input((*p).clone()))
            .collect();
        let y = layer.forward(&mut g, xv, &pvars);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let inferred = layer.infer(&x, &LayerQuant::full_precision(), &mut ctx);
        let diff = (g.value(y) - &inferred).max_abs();
        assert!(diff < 1e-6, "{diff}");
    }

    #[test]
    fn capsule_grouping_is_spatially_consistent() {
        // Capsule t at position p must contain channels t·D..(t+1)·D of the
        // conv output at p.
        let layer = layer();
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::rand_uniform([1, 4, 7, 7], 0.0, 1.0, &mut rng);
        let conv_out = conv2d(&x, &layer.weight, Some(&layer.bias), layer.spec);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let caps = layer.infer(&x, &LayerQuant::full_precision(), &mut ctx);
        // Pre-squash vector for type 1, position (2,0): channels 4..8.
        let raw: Vec<f32> = (0..4).map(|d| conv_out.get(&[0, 4 + d, 2, 0])).collect();
        let raw_t = Tensor::from_vec(raw, [1, 4]).unwrap().squash_axis(1);
        let cap_index = 1 * 9 + 2 * 3 + 0; // type 1, row 2, col 0
        for d in 0..4 {
            assert!((caps.get(&[0, cap_index, d]) - raw_t.get(&[0, d])).abs() < 1e-6);
        }
    }
}
