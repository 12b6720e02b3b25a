//! The ShallowCaps architecture (Sabour et al., NIPS 2017; paper Fig. 5):
//! Conv → PrimaryCaps → DigitCaps with dynamic routing.

use crate::descriptor::{GroupDesc, LayerDesc, ModelDesc};
use crate::layers::Activation;
use qcn_tensor::conv::Conv2dSpec;

/// Hyperparameters of a ShallowCaps instance.
///
/// [`ShallowCapsConfig::paper`] reproduces the full-size architecture of
/// the paper exactly (for memory/MAC accounting — see `qcn-hwmodel`);
/// [`ShallowCapsConfig::small`] is the CPU-trainable scaled variant used in
/// the experiments (DESIGN.md §3, substitution 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShallowCapsConfig {
    /// Input channels (1 for the MNIST-like datasets).
    pub in_channels: usize,
    /// Input image side length (square images).
    pub image_side: usize,
    /// L1 conv output channels.
    pub conv_channels: usize,
    /// L1 conv kernel side.
    pub conv_kernel: usize,
    /// L2 PrimaryCaps capsule types.
    pub primary_types: usize,
    /// L2 PrimaryCaps capsule dimensionality.
    pub primary_dim: usize,
    /// L2 conv kernel side.
    pub primary_kernel: usize,
    /// L2 conv stride.
    pub primary_stride: usize,
    /// Output classes (DigitCaps count).
    pub num_classes: usize,
    /// DigitCaps dimensionality.
    pub digit_dim: usize,
    /// Dynamic-routing iterations.
    pub routing_iters: usize,
}

impl ShallowCapsConfig {
    /// The exact architecture of Sabour et al. for 28×28 MNIST:
    /// Conv 9×9×256 → PrimaryCaps 9×9 s2, 32 types × 8-D → DigitCaps
    /// 10 × 16-D, 3 routing iterations.
    pub fn paper() -> Self {
        ShallowCapsConfig {
            in_channels: 1,
            image_side: 28,
            conv_channels: 256,
            conv_kernel: 9,
            primary_types: 32,
            primary_dim: 8,
            primary_kernel: 9,
            primary_stride: 2,
            num_classes: 10,
            digit_dim: 16,
            routing_iters: 3,
        }
    }

    /// CPU-trainable scaled variant for 16×16 synthetic data, preserving
    /// every structural element (conv stem, primary capsules, routed digit
    /// capsules).
    pub fn small(in_channels: usize) -> Self {
        ShallowCapsConfig {
            in_channels,
            image_side: 16,
            conv_channels: 24,
            conv_kernel: 5,
            primary_types: 8,
            primary_dim: 4,
            primary_kernel: 5,
            primary_stride: 2,
            num_classes: 10,
            digit_dim: 8,
            routing_iters: 3,
        }
    }
}

impl From<ShallowCapsConfig> for ModelDesc {
    /// The ShallowCaps structure: groups `L1` (conv stem), `L2`
    /// (PrimaryCaps) and `L3` (routed DigitCaps).
    fn from(c: ShallowCapsConfig) -> ModelDesc {
        let conv = LayerDesc::Conv2d {
            in_channels: c.in_channels,
            out_channels: c.conv_channels,
            spec: Conv2dSpec::new(c.conv_kernel, c.conv_kernel, 1, 0),
            activation: Activation::BoundedRelu,
        };
        let primary = LayerDesc::PrimaryCaps {
            in_channels: c.conv_channels,
            types: c.primary_types,
            dim: c.primary_dim,
            spec: Conv2dSpec::new(c.primary_kernel, c.primary_kernel, c.primary_stride, 0),
        };
        let (oh, ow) = primary.output_hw(conv.output_hw((c.image_side, c.image_side)));
        let digit = LayerDesc::CapsFc {
            in_caps: c.primary_types * oh * ow,
            in_dim: c.primary_dim,
            out_caps: c.num_classes,
            out_dim: c.digit_dim,
            iters: c.routing_iters,
        };
        ModelDesc {
            name: "ShallowCaps".into(),
            in_channels: c.in_channels,
            image_side: c.image_side,
            num_classes: c.num_classes,
            groups: vec![
                ("L1".into(), GroupDesc::Layer(conv)),
                ("L2".into(), GroupDesc::Layer(primary)),
                ("L3".into(), GroupDesc::Layer(digit)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CapsNet;
    use crate::models::ShallowCaps;
    use crate::quant::{ModelQuant, QuantCtx};
    use qcn_autograd::Graph;
    use qcn_fixed::RoundingScheme;
    use qcn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> ShallowCaps {
        ShallowCaps::new(ShallowCapsConfig::small(1), 0)
    }

    #[test]
    fn paper_config_parameter_counts() {
        // Sanity: the full-size descriptor matches the well-known numbers.
        let cfg = ShallowCapsConfig::paper();
        let conv_params = 256 * 1 * 81 + 256;
        let primary_params = 256 * 256 * 81 + 256;
        let digit_params = (6 * 6 * 32) * 10 * 8 * 16;
        // 28-9+1=20 conv out; (20-9)/2+1=6 primary out; 6·6·32=1152 caps.
        let model = ShallowCaps::new(cfg, 0);
        let groups = model.groups();
        assert_eq!(groups[0].weight_count, conv_params);
        assert_eq!(groups[1].weight_count, primary_params);
        assert_eq!(groups[2].weight_count, digit_params);
        assert_eq!(
            model.total_weights(),
            conv_params + primary_params + digit_params
        );
    }

    #[test]
    fn small_model_output_shape() {
        let model = model();
        let x = Tensor::zeros([2, 1, 16, 16]);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let caps = model.infer(&x, &ModelQuant::full_precision(3), &mut ctx);
        assert_eq!(caps.dims(), &[2, 10, 8]);
    }

    #[test]
    fn forward_matches_infer_in_fp32() {
        let model = model();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform([2, 1, 16, 16], 0.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let pvars: Vec<_> = model
            .params()
            .iter()
            .map(|p| g.input((*p).clone()))
            .collect();
        let y = model.forward(&mut g, xv, &pvars);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let inferred = model.infer(&x, &ModelQuant::full_precision(3), &mut ctx);
        assert!((g.value(y) - &inferred).max_abs() < 1e-4);
    }

    #[test]
    fn group_metadata_is_consistent() {
        let model = model();
        let groups = model.groups();
        assert_eq!(groups.len(), 3);
        assert!(!groups[0].has_routing);
        assert!(groups[2].has_routing);
        let param_total: usize = model.params().iter().map(|p| p.len()).sum();
        assert_eq!(param_total, model.total_weights());
    }

    #[test]
    fn weight_quantization_produces_grid_weights() {
        let model = model();
        let mut config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
        config.layers[2].weight_frac = Some(3);
        let q = model.with_quantized_weights(&config);
        let fmt5 = qcn_fixed::QFormat::with_frac(5);
        let fmt3 = qcn_fixed::QFormat::with_frac(3);
        assert!(q.params()[0]
            .data()
            .iter()
            .all(|&w| fmt5.is_representable(w)));
        assert!(q.params()[4]
            .data()
            .iter()
            .all(|&w| fmt3.is_representable(w)));
        // Original model untouched.
        assert_ne!(model.params()[0], q.params()[0]);
    }

    #[test]
    fn quantized_inference_stays_close_at_high_bits() {
        let model = model();
        // Keep inputs small so fp32 activations stay inside the Q1.x
        // range [−1, 1) — otherwise saturation (correctly) dominates.
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_uniform([2, 1, 16, 16], 0.0, 0.25, &mut rng);
        let fp = {
            let mut ctx = QuantCtx::new(RoundingScheme::RoundToNearest, 0);
            model.infer(&x, &ModelQuant::full_precision(3), &mut ctx)
        };
        let config = ModelQuant::uniform(3, 12, RoundingScheme::RoundToNearest);
        let qmodel = model.with_quantized_weights(&config);
        let mut ctx = QuantCtx::from_config(&config);
        let q = qmodel.infer(&x, &config, &mut ctx);
        assert!((&fp - &q).max_abs() < 0.05);
    }

    #[test]
    fn predict_returns_class_indices() {
        let model = model();
        let x = Tensor::zeros([3, 1, 16, 16]);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let preds = model.predict(&x, &ModelQuant::full_precision(3), &mut ctx);
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|&p| p < 10));
    }
}
