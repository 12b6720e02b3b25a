//! The ShallowCaps architecture (Sabour et al., NIPS 2017; paper Fig. 5):
//! Conv → PrimaryCaps → DigitCaps with dynamic routing.

use crate::layers::{Activation, CapsFc, Conv2dLayer, PrimaryCaps};
use crate::model::{CapsNet, GroupInfo};
use crate::quant::{ModelQuant, QuantCtx};
use qcn_autograd::{Graph, Var};
use qcn_tensor::conv::Conv2dSpec;
use qcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The ShallowCaps model: three quantization groups (L1, L2, L3).
///
/// # Examples
///
/// ```
/// use qcn_capsnet::{accuracy, CapsNet, ModelQuant, ShallowCaps, ShallowCapsConfig};
/// use qcn_datasets::SynthKind;
///
/// let model = ShallowCaps::new(ShallowCapsConfig::small(1), 42);
/// assert_eq!(model.groups().len(), 3);
/// let test = SynthKind::Mnist.generate(20, 0);
/// // Untrained accuracy is near chance but the pipeline runs end to end.
/// let acc = accuracy(&model, &test, &ModelQuant::full_precision(3), 10);
/// assert!((0.0..=1.0).contains(&acc));
/// ```
#[derive(Debug, Clone)]
pub struct ShallowCaps {
    config: ShallowCapsConfig,
    conv: Conv2dLayer,
    primary: PrimaryCaps,
    digit: CapsFc,
}

impl ShallowCaps {
    /// Builds the model with seeded random initialisation.
    ///
    /// # Panics
    ///
    /// Panics when the configured kernels do not fit the image.
    pub fn new(config: ShallowCapsConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let conv_spec = Conv2dSpec::new(config.conv_kernel, config.conv_kernel, 1, 0);
        let conv = Conv2dLayer::new(
            config.in_channels,
            config.conv_channels,
            conv_spec,
            Activation::BoundedRelu,
            &mut rng,
        );
        let (h1, w1) = conv_spec.output_hw(config.image_side, config.image_side);
        let primary_spec = Conv2dSpec::new(
            config.primary_kernel,
            config.primary_kernel,
            config.primary_stride,
            0,
        );
        let primary = PrimaryCaps::new(
            config.conv_channels,
            config.primary_types,
            config.primary_dim,
            primary_spec,
            &mut rng,
        );
        let num_caps = primary.num_caps(h1, w1);
        let digit = CapsFc::new(
            num_caps,
            config.primary_dim,
            config.num_classes,
            config.digit_dim,
            config.routing_iters,
            &mut rng,
        );
        ShallowCaps {
            config,
            conv,
            primary,
            digit,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &ShallowCapsConfig {
        &self.config
    }

    fn conv_hw(&self) -> (usize, usize) {
        self.conv
            .output_hw(self.config.image_side, self.config.image_side)
    }
}

impl CapsNet for ShallowCaps {
    fn name(&self) -> &str {
        "ShallowCaps"
    }

    fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    fn groups(&self) -> Vec<GroupInfo> {
        let (h1, w1) = self.conv_hw();
        vec![
            GroupInfo {
                name: "L1".into(),
                weight_count: self.conv.weight_count(),
                activation_count: self
                    .conv
                    .activation_count(self.config.image_side, self.config.image_side),
                has_routing: false,
            },
            GroupInfo {
                name: "L2".into(),
                weight_count: self.primary.weight_count(),
                activation_count: self.primary.activation_count(h1, w1),
                has_routing: false,
            },
            GroupInfo {
                name: "L3".into(),
                weight_count: self.digit.weight_count(),
                activation_count: self.digit.activation_count(),
                has_routing: true,
            },
        ]
    }

    fn params(&self) -> Vec<&Tensor> {
        let mut p = self.conv.params();
        p.extend(self.primary.params());
        p.extend(self.digit.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.conv.params_mut();
        p.extend(self.primary.params_mut());
        p.extend(self.digit.params_mut());
        p
    }

    fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        let y = self.conv.forward(g, x, &pvars[0..2]);
        let caps = self.primary.forward(g, y, &pvars[2..4]);
        self.digit.forward(g, caps, &pvars[4..5])
    }

    fn infer_stage(
        &self,
        stage: usize,
        x: &Tensor,
        config: &ModelQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor {
        assert_eq!(config.layers.len(), 3, "ShallowCaps has 3 groups");
        ctx.enter_stage(stage, x.data(), x.dims()[0], |v| v);
        match stage {
            0 => self.conv.infer(x, &config.layers[0], ctx),
            1 => self.primary.infer(x, &config.layers[1], ctx),
            2 => self.digit.infer(x, &config.layers[2], ctx),
            s => panic!("ShallowCaps has 3 stages, got stage {s}"),
        }
    }

    fn canonical_config(&self, config: &ModelQuant) -> ModelQuant {
        assert_eq!(config.layers.len(), 3, "ShallowCaps has 3 groups");
        let mut c = config.clone();
        for (l, lq) in c.layers.iter_mut().enumerate() {
            // Only the routed DigitCaps layer reads Q_DR (as
            // `effective_dr_frac`, falling back to `Qa`); no ShallowCaps
            // layer reads `stream_frac`.
            lq.dr_frac = if l == 2 { lq.effective_dr_frac() } else { None };
            lq.stream_frac = None;
        }
        c
    }

    fn with_quantized_weights(&self, config: &ModelQuant) -> Self {
        assert_eq!(config.layers.len(), 3, "ShallowCaps has 3 groups");
        let mut ctx = QuantCtx::from_config(config);
        let mut out = self.clone();
        ctx.enter_weights(0);
        out.conv
            .quantize_weights(config.layers[0].weight_frac, &mut ctx);
        ctx.enter_weights(1);
        out.primary
            .quantize_weights(config.layers[1].weight_frac, &mut ctx);
        ctx.enter_weights(2);
        out.digit
            .quantize_weights(config.layers[2].weight_frac, &mut ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_fixed::RoundingScheme;

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
