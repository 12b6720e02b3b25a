//! The DeepCaps architecture (Rajasegaran et al., CVPR 2019; paper Fig. 7):
//! a conv stem, residual blocks of convolutional capsules (the last block
//! carrying a dynamic-routing skip branch), and a fully-connected capsule
//! output layer with routing.

use crate::descriptor::{BlockDesc, GroupDesc, LayerDesc, ModelDesc};
use crate::layers::Activation;
use qcn_tensor::conv::Conv2dSpec;

/// Geometry of one DeepCaps block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Capsule types produced by the block.
    pub types: usize,
    /// Capsule dimensionality.
    pub dim: usize,
    /// Stride of the block's first (and skip) convolution.
    pub stride: usize,
}

/// Hyperparameters of a DeepCaps instance.
///
/// [`DeepCapsConfig::paper`] reproduces the full-size descriptor (four
/// blocks of 32-type capsules on 64×64 inputs) for memory/MAC accounting;
/// [`DeepCapsConfig::small`] is the CPU-trainable variant (two blocks,
/// 16×16 inputs) that preserves the block structure, the skip branches and
/// the two dynamic-routing sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeepCapsConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Input image side length.
    pub image_side: usize,
    /// Conv stem output channels.
    pub conv_channels: usize,
    /// Capsule blocks, input to output. The last block's skip branch
    /// performs dynamic routing (paper Fig. 7's Conv3D caps).
    pub blocks: Vec<BlockConfig>,
    /// Output classes.
    pub num_classes: usize,
    /// Output capsule dimensionality.
    pub digit_dim: usize,
    /// Dynamic-routing iterations.
    pub routing_iters: usize,
}

impl DeepCapsConfig {
    /// Full-size DeepCaps descriptor from the paper (64×64 inputs, four
    /// blocks, FC caps 10 × 32-D).
    pub fn paper(in_channels: usize) -> Self {
        DeepCapsConfig {
            in_channels,
            image_side: 64,
            conv_channels: 128,
            blocks: vec![
                BlockConfig {
                    types: 32,
                    dim: 4,
                    stride: 2,
                },
                BlockConfig {
                    types: 32,
                    dim: 8,
                    stride: 2,
                },
                BlockConfig {
                    types: 32,
                    dim: 8,
                    stride: 2,
                },
                BlockConfig {
                    types: 32,
                    dim: 8,
                    stride: 2,
                },
            ],
            num_classes: 10,
            digit_dim: 32,
            routing_iters: 3,
        }
    }

    /// CPU-trainable scaled variant for 16×16 synthetic data: two blocks
    /// (B2, B3), routing in B3's skip branch and in the output layer.
    pub fn small(in_channels: usize) -> Self {
        DeepCapsConfig {
            in_channels,
            image_side: 16,
            conv_channels: 16,
            blocks: vec![
                BlockConfig {
                    types: 4,
                    dim: 4,
                    stride: 2,
                },
                BlockConfig {
                    types: 4,
                    dim: 8,
                    stride: 2,
                },
            ],
            num_classes: 10,
            digit_dim: 8,
            routing_iters: 3,
        }
    }
}

impl From<DeepCapsConfig> for ModelDesc {
    /// The DeepCaps structure: groups `L1` (conv stem), one block per
    /// [`BlockConfig`] (`B2`, `B3`, …) and the routed output layer
    /// `L<n>`.
    ///
    /// # Panics
    ///
    /// Panics when `config.blocks` is empty.
    fn from(c: DeepCapsConfig) -> ModelDesc {
        assert!(!c.blocks.is_empty(), "DeepCaps needs at least one block");
        let mut groups = Vec::with_capacity(c.blocks.len() + 2);
        groups.push((
            "L1".into(),
            GroupDesc::Layer(LayerDesc::Conv2d {
                in_channels: c.in_channels,
                out_channels: c.conv_channels,
                spec: Conv2dSpec::new(3, 3, 1, 1),
                activation: Activation::BoundedRelu,
            }),
        ));
        let mut in_channels = c.conv_channels;
        // (types, dim) of the running capsule layout; the conv stem output
        // is treated as `conv_channels` 1-D capsules.
        let mut in_types_dim = (c.conv_channels, 1);
        let mut hw = (c.image_side, c.image_side);
        for (i, bc) in c.blocks.iter().enumerate() {
            let last = i + 1 == c.blocks.len();
            let stride_spec = Conv2dSpec::new(3, 3, bc.stride, 1);
            let main1 = LayerDesc::ConvCaps {
                in_channels,
                types: bc.types,
                dim: bc.dim,
                spec: stride_spec,
                squash: true,
            };
            let main2 = LayerDesc::ConvCaps {
                in_channels: bc.types * bc.dim,
                types: bc.types,
                dim: bc.dim,
                spec: Conv2dSpec::new(3, 3, 1, 1),
                squash: false,
            };
            let skip = if last {
                // Routing across the *input* capsule types of this block.
                let (ti, di) = in_types_dim;
                LayerDesc::ConvCapsRouting {
                    in_types: ti,
                    in_dim: di,
                    out_types: bc.types,
                    out_dim: bc.dim,
                    spec: stride_spec,
                    iters: c.routing_iters,
                }
            } else {
                LayerDesc::ConvCaps {
                    in_channels,
                    types: bc.types,
                    dim: bc.dim,
                    spec: stride_spec,
                    squash: false,
                }
            };
            hw = main1.output_hw(hw);
            groups.push((
                format!("B{}", i + 2),
                GroupDesc::Block(BlockDesc {
                    main1,
                    main2,
                    skip,
                    types: bc.types,
                    dim: bc.dim,
                }),
            ));
            in_channels = bc.types * bc.dim;
            in_types_dim = (bc.types, bc.dim);
        }
        let (types, dim) = in_types_dim;
        groups.push((
            format!("L{}", c.blocks.len() + 2),
            GroupDesc::Layer(LayerDesc::CapsFc {
                in_caps: types * hw.0 * hw.1,
                in_dim: dim,
                out_caps: c.num_classes,
                out_dim: c.digit_dim,
                iters: c.routing_iters,
            }),
        ));
        ModelDesc {
            name: "DeepCaps".into(),
            in_channels: c.in_channels,
            image_side: c.image_side,
            num_classes: c.num_classes,
            groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CapsNet;
    use crate::models::DeepCaps;
    use crate::quant::{ModelQuant, QuantCtx};
    use qcn_autograd::Graph;
    use qcn_fixed::RoundingScheme;
    use qcn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> DeepCaps {
        DeepCaps::new(DeepCapsConfig::small(1), 0)
    }

    #[test]
    fn group_layout() {
        let m = model();
        let groups = m.groups();
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0].name, "L1");
        assert_eq!(groups[1].name, "B2");
        assert_eq!(groups[2].name, "B3");
        assert_eq!(groups[3].name, "L4");
        assert!(!groups[0].has_routing);
        assert!(!groups[1].has_routing);
        assert!(groups[2].has_routing, "last block's skip routes");
        assert!(groups[3].has_routing, "output layer routes");
    }

    #[test]
    fn output_shape() {
        let m = model();
        let x = Tensor::zeros([2, 1, 16, 16]);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let caps = m.infer(&x, &ModelQuant::full_precision(4), &mut ctx);
        assert_eq!(caps.dims(), &[2, 10, 8]);
    }

    #[test]
    fn forward_matches_infer_in_fp32() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform([1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let pvars: Vec<_> = m.params().iter().map(|p| g.input((*p).clone())).collect();
        let y = m.forward(&mut g, xv, &pvars);
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let inferred = m.infer(&x, &ModelQuant::full_precision(4), &mut ctx);
        assert!((g.value(y) - &inferred).max_abs() < 1e-4);
    }

    #[test]
    fn params_and_groups_account_all_weights() {
        let m = model();
        let by_params: usize = m.params().iter().map(|p| p.len()).sum();
        assert_eq!(by_params, m.total_weights());
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_uniform([2, 1, 16, 16], 0.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x);
        let pvars: Vec<_> = m.params().iter().map(|p| g.input((*p).clone())).collect();
        let y = m.forward(&mut g, xv, &pvars);
        let sq = g.square(y);
        let loss = g.sum_all(sq);
        g.backward(loss);
        for (i, &pv) in pvars.iter().enumerate() {
            let grad = g
                .grad(pv)
                .unwrap_or_else(|| panic!("no grad for param {i}"));
            assert!(grad.max_abs() > 0.0, "param {i} has an all-zero gradient");
        }
    }

    #[test]
    fn paper_descriptor_builds() {
        // The full-size DeepCaps is constructible (used for Fig. 1-style
        // accounting); we only check its group structure, not train it.
        let m = DeepCaps::new(DeepCapsConfig::paper(3), 0);
        let groups = m.groups();
        assert_eq!(groups.len(), 6); // L1, B2..B5, L6 — matching Fig. 12
        assert!(groups[4].has_routing);
        assert!(groups[5].has_routing);
        assert!(m.total_weights() > 1_000_000);
    }

    #[test]
    fn quantized_weights_are_on_grid() {
        let m = model();
        let config = ModelQuant::uniform(4, 6, RoundingScheme::Truncation);
        let q = m.with_quantized_weights(&config);
        let fmt = qcn_fixed::QFormat::with_frac(6);
        for p in q.params() {
            assert!(p.data().iter().all(|&w| fmt.is_representable(w)));
        }
    }
}
