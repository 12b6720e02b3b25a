//! The plain convolutional stem layer (L1 of both ShallowCaps and DeepCaps).

use crate::quant::{LayerQuant, QuantCtx};
use qcn_autograd::{Graph, Var};
use qcn_tensor::conv::{conv2d, conv2d_fused, Conv2dSpec};
use qcn_tensor::Tensor;
use rand::Rng;

/// Activation applied after the convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// No nonlinearity.
    None,
    /// Standard rectified linear unit.
    Relu,
    /// ReLU clipped at 1 (a ReLU1, as common in quantized networks): the
    /// output range `[0, 1]` matches the paper's Q1.x activation format,
    /// so fixed-point clamping is part of the trained behaviour instead of
    /// a post-hoc accuracy loss.
    BoundedRelu,
}

/// A standard 2-D convolution layer with optional (bounded) ReLU.
///
/// # Examples
///
/// ```
/// use qcn_capsnet::layers::Conv2dLayer;
/// use qcn_tensor::conv::Conv2dSpec;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let layer = Conv2dLayer::new(1, 8, Conv2dSpec::new(3, 3, 1, 1),
///                               qcn_capsnet::layers::Activation::BoundedRelu, &mut rng);
/// assert_eq!(layer.params()[0].dims(), &[8, 1, 3, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    weight: Tensor,
    bias: Tensor,
    spec: Conv2dSpec,
    activation: Activation,
}

impl Conv2dLayer {
    /// Creates a conv layer with He-normal weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        spec: Conv2dSpec,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * spec.kh * spec.kw;
        Conv2dLayer {
            weight: Tensor::he_normal([out_channels, in_channels, spec.kh, spec.kw], fan_in, rng),
            bias: Tensor::zeros([out_channels]),
            spec,
            activation,
        }
    }

    /// Parameters in registration order (weight, bias).
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    /// Mutable parameters in registration order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Training-time forward: `pvars` must hold this layer's two parameter
    /// vars (weight, bias).
    pub fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        let y = g.conv2d(x, pvars[0], Some(pvars[1]), self.spec);
        match self.activation {
            Activation::None => y,
            Activation::Relu => g.relu(y),
            Activation::BoundedRelu => {
                // min(relu(x), 1) = relu(x) − relu(x − 1): composed from
                // existing ops so the gradient (1 on (0, 1), 0 elsewhere)
                // comes for free.
                let r = g.relu(y);
                let shifted = g.scalar_add(r, -1.0);
                let overflow = g.relu(shifted);
                g.sub(r, overflow)
            }
        }
    }

    /// Inference with optional activation quantization (`Qa` applied to the
    /// layer output, per paper Fig. 9).
    ///
    /// When quantized, activation and rounding run inside the convolution's
    /// writeback epilogue: each output row is biased, activated, and rounded
    /// by the worker that produced it, while still cache-hot. The epilogue's
    /// stochastic stream is keyed by element position, so results are
    /// bit-identical to the separate conv → activation → round passes for
    /// every thread count.
    pub fn infer(&self, x: &Tensor, lq: &LayerQuant, ctx: &mut QuantCtx) -> Tensor {
        let (oh, ow) = self.spec.output_hw(x.dims()[2], x.dims()[3]);
        let len = x.dims()[0] * self.weight.dims()[0] * oh * ow;
        if let Some(fq) = ctx.fused(lq.act_frac, len) {
            let act = self.activation;
            let epi = move |off: usize, row: &mut [f32]| {
                match act {
                    Activation::None => {}
                    Activation::Relu => row.iter_mut().for_each(|v| *v = v.max(0.0)),
                    Activation::BoundedRelu => {
                        row.iter_mut().for_each(|v| *v = v.clamp(0.0, 1.0));
                    }
                }
                fq.apply(off, row);
            };
            return conv2d_fused(x, &self.weight, Some(&self.bias), self.spec, Some(&epi));
        }
        let y = conv2d(x, &self.weight, Some(&self.bias), self.spec);
        match self.activation {
            Activation::None => y,
            Activation::Relu => y.relu(),
            Activation::BoundedRelu => y.map(|v| v.clamp(0.0, 1.0)),
        }
    }

    /// Rounds the stored weights onto the `frac`-bit grid (framework weight
    /// quantization; a no-op when `frac` is `None`).
    pub fn quantize_weights(&mut self, frac: Option<u8>, ctx: &mut QuantCtx) {
        self.weight = ctx.round(self.weight.clone(), frac);
        self.bias = ctx.round(self.bias.clone(), frac);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_fixed::RoundingScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Conv2dLayer {
        let mut rng = StdRng::seed_from_u64(0);
        Conv2dLayer::new(
            2,
            4,
            Conv2dSpec::new(3, 3, 1, 1),
            Activation::BoundedRelu,
            &mut rng,
        )
    }

    #[test]
    fn forward_and_infer_agree_in_fp32() {
        let layer = layer();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform([2, 2, 6, 6], 0.0, 1.0, &mut rng);
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
        assert_eq!(g.value(y), &inferred);
    }

    #[test]
    fn relu_clamps_inference_output() {
        let layer = layer();
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_uniform([1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let y = layer.infer(&x, &LayerQuant::full_precision(), &mut ctx);
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn act_quantization_rounds_output() {
        let layer = layer();
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform([1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let mut ctx = QuantCtx::new(RoundingScheme::RoundToNearest, 0);
        let lq = LayerQuant {
            act_frac: Some(3),
            ..LayerQuant::full_precision()
        };
        let y = layer.infer(&x, &lq, &mut ctx);
        let q = qcn_fixed::QFormat::with_frac(3);
        assert!(y.data().iter().all(|&v| q.is_representable(v)));
    }

    #[test]
    fn weight_quantization_changes_weights_only_once() {
        let mut layer = layer();
        let before = layer.params()[0].clone();
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        layer.quantize_weights(Some(4), &mut ctx);
        let after = layer.params()[0].clone();
        assert_ne!(before, after);
        // Idempotent: re-quantizing at the same width is a no-op.
        layer.quantize_weights(Some(4), &mut ctx);
        assert_eq!(&after, layer.params()[0]);
    }
}
