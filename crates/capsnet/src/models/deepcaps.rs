//! The DeepCaps architecture (Rajasegaran et al., CVPR 2019; paper Fig. 7):
//! a conv stem, residual blocks of convolutional capsules (the last block
//! carrying a dynamic-routing skip branch), and a fully-connected capsule
//! output layer with routing.

use crate::layers::{
    flatten_caps, flatten_caps_graph, Activation, CapsFc, Conv2dLayer, ConvCaps, ConvCapsRouting,
};
use crate::model::{CapsNet, GroupInfo};
use crate::quant::{LayerQuant, ModelQuant, QuantCtx};
use qcn_autograd::{Graph, Var};
use qcn_tensor::conv::Conv2dSpec;
use qcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// One residual capsule block: `out = squash(main2(main1(x)) + skip(x))`.
#[derive(Debug, Clone)]
struct Block {
    main1: ConvCaps,
    main2: ConvCaps,
    /// Plain skip for inner blocks; routing skip for the last block.
    skip: SkipBranch,
    types: usize,
    dim: usize,
}

#[derive(Debug, Clone)]
enum SkipBranch {
    Plain(ConvCaps),
    Routing(ConvCapsRouting),
}

/// The DeepCaps model. Quantization groups: `L1` (conv stem), one group
/// per block (`B2`, `B3`, …), and the output capsule layer (`L<n>`).
#[derive(Debug, Clone)]
pub struct DeepCaps {
    config: DeepCapsConfig,
    conv: Conv2dLayer,
    blocks: Vec<Block>,
    fc: CapsFc,
}

impl DeepCaps {
    /// Builds the model with seeded random initialisation.
    ///
    /// # Panics
    ///
    /// Panics when `config.blocks` is empty, the first block's input is not
    /// capsule-typed where routing is required, or the geometry does not
    /// fit the image.
    pub fn new(config: DeepCapsConfig, seed: u64) -> Self {
        assert!(
            !config.blocks.is_empty(),
            "DeepCaps needs at least one block"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv2dLayer::new(
            config.in_channels,
            config.conv_channels,
            Conv2dSpec::new(3, 3, 1, 1),
            Activation::BoundedRelu,
            &mut rng,
        );
        let mut blocks = Vec::with_capacity(config.blocks.len());
        let mut in_channels = config.conv_channels;
        // Track (types, dim) of the running capsule layout; the conv stem
        // output is treated as `conv_channels` 1-D capsules for the first
        // block's plain convolutions.
        let mut in_types_dim = (config.conv_channels, 1);
        for (i, bc) in config.blocks.iter().enumerate() {
            let last = i + 1 == config.blocks.len();
            let out_channels = bc.types * bc.dim;
            let stride_spec = Conv2dSpec::new(3, 3, bc.stride, 1);
            let unit_spec = Conv2dSpec::new(3, 3, 1, 1);
            let main1 = ConvCaps::new(in_channels, bc.types, bc.dim, stride_spec, true, &mut rng);
            let main2 = ConvCaps::new(out_channels, bc.types, bc.dim, unit_spec, false, &mut rng);
            let skip = if last {
                // Routing across the *input* capsule types of this block.
                let (ti, di) = in_types_dim;
                SkipBranch::Routing(ConvCapsRouting::new(
                    ti,
                    di,
                    bc.types,
                    bc.dim,
                    stride_spec,
                    config.routing_iters,
                    &mut rng,
                ))
            } else {
                SkipBranch::Plain(ConvCaps::new(
                    in_channels,
                    bc.types,
                    bc.dim,
                    stride_spec,
                    false,
                    &mut rng,
                ))
            };
            blocks.push(Block {
                main1,
                main2,
                skip,
                types: bc.types,
                dim: bc.dim,
            });
            in_channels = out_channels;
            in_types_dim = (bc.types, bc.dim);
        }
        // Spatial size after the stem and all block strides.
        let mut side = config.image_side;
        for bc in &config.blocks {
            side = (side + 2 - 3) / bc.stride + 1;
        }
        let last = config.blocks.last().expect("blocks checked non-empty");
        let num_caps = last.types * side * side;
        let fc = CapsFc::new(
            num_caps,
            last.dim,
            config.num_classes,
            config.digit_dim,
            config.routing_iters,
            &mut rng,
        );
        DeepCaps {
            config,
            conv,
            blocks,
            fc,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &DeepCapsConfig {
        &self.config
    }

    /// Spatial side length of each block's output.
    fn block_sides(&self) -> Vec<usize> {
        let mut sides = Vec::with_capacity(self.blocks.len());
        let mut side = self.config.image_side;
        for bc in &self.config.blocks {
            side = (side + 2 - 3) / bc.stride + 1;
            sides.push(side);
        }
        sides
    }

    fn block_forward(&self, g: &mut Graph, block: &Block, x: Var, pvars: &[Var]) -> Var {
        let m1 = block.main1.forward(g, x, &pvars[0..2]);
        let m2 = block.main2.forward(g, m1, &pvars[2..4]);
        let skip = match &block.skip {
            SkipBranch::Plain(layer) => layer.forward(g, x, &pvars[4..6]),
            SkipBranch::Routing(layer) => layer.forward(g, x, &pvars[4..5]),
        };
        let sum = g.add(m2, skip);
        // Final squash over the capsule dimension of the packed layout.
        let dims = g.value(sum).dims().to_vec();
        let (b, h, w) = (dims[0], dims[2], dims[3]);
        let grouped = g.reshape(sum, [b, block.types, block.dim, h * w]);
        let squashed = g.squash_axis(grouped, 2);
        g.reshape(squashed, [b, block.types * block.dim, h, w])
    }

    fn block_infer(
        &self,
        block: &Block,
        x: &Tensor,
        lq: &LayerQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor {
        // Intra-block tensors are streaming datapath values; only the
        // block output is a stored activation, so by default only it (and
        // the routing internals, at Q_DR) are rounded. When `stream_frac`
        // is set, the streaming tensors are kept on that grid too, so the
        // whole block is executable on an integer datapath.
        let inner = LayerQuant {
            act_frac: lq.stream_frac,
            ..*lq
        };
        let m1 = block.main1.infer(x, &inner, ctx);
        let m2 = block.main2.infer(&m1, &inner, ctx);
        let skip = match &block.skip {
            SkipBranch::Plain(layer) => layer.infer(x, &inner, ctx),
            SkipBranch::Routing(layer) => layer.infer(x, &inner, ctx),
        };
        let sum = &m2 + &skip;
        let (b, h, w) = (sum.dims()[0], sum.dims()[2], sum.dims()[3]);
        // Block-output squash with the Qa rounding fused into the same
        // per-capsule loop (bit-identical to squash-then-round).
        let mut grouped = sum
            .reshape([b, block.types, block.dim, h * w])
            .expect("packed layout matches capsule grouping");
        let fq = ctx.fused(lq.act_frac, grouped.len());
        crate::layers::squash_blocks_fused(grouped.data_mut(), block.dim, h * w, fq.as_ref());
        grouped
            .reshape([b, block.types * block.dim, h, w])
            .expect("squashed capsules repack")
    }

    fn block_params(block: &Block) -> Vec<&Tensor> {
        let mut p = block.main1.params();
        p.extend(block.main2.params());
        match &block.skip {
            SkipBranch::Plain(layer) => p.extend(layer.params()),
            SkipBranch::Routing(layer) => p.extend(layer.params()),
        }
        p
    }

    fn block_param_count(block: &Block) -> usize {
        match &block.skip {
            SkipBranch::Plain(_) => 6,
            SkipBranch::Routing(_) => 5,
        }
    }
}

impl CapsNet for DeepCaps {
    fn name(&self) -> &str {
        "DeepCaps"
    }

    fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    fn groups(&self) -> Vec<GroupInfo> {
        let mut groups = Vec::with_capacity(self.blocks.len() + 2);
        groups.push(GroupInfo {
            name: "L1".into(),
            weight_count: self.conv.weight_count(),
            activation_count: self
                .conv
                .activation_count(self.config.image_side, self.config.image_side),
            has_routing: false,
        });
        let sides = self.block_sides();
        for (i, (block, &side)) in self.blocks.iter().zip(sides.iter()).enumerate() {
            let weight_count = Self::block_params(block).iter().map(|p| p.len()).sum();
            let (routing, skip_acts) = match &block.skip {
                SkipBranch::Plain(_) => (false, 0),
                SkipBranch::Routing(_) => (true, 0),
            };
            // Only the block output is a stored activation.
            let out_acts = block.types * block.dim * side * side;
            let _ = skip_acts;
            groups.push(GroupInfo {
                name: format!("B{}", i + 2),
                weight_count,
                activation_count: out_acts,
                has_routing: routing,
            });
        }
        groups.push(GroupInfo {
            name: format!("L{}", self.blocks.len() + 2),
            weight_count: self.fc.weight_count(),
            activation_count: self.fc.activation_count(),
            has_routing: true,
        });
        groups
    }

    fn params(&self) -> Vec<&Tensor> {
        let mut p = self.conv.params();
        for block in &self.blocks {
            p.extend(Self::block_params(block));
        }
        p.extend(self.fc.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.conv.params_mut();
        for block in &mut self.blocks {
            p.extend(block.main1.params_mut());
            p.extend(block.main2.params_mut());
            match &mut block.skip {
                SkipBranch::Plain(layer) => p.extend(layer.params_mut()),
                SkipBranch::Routing(layer) => p.extend(layer.params_mut()),
            }
        }
        p.extend(self.fc.params_mut());
        p
    }

    fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        let mut y = self.conv.forward(g, x, &pvars[0..2]);
        let mut offset = 2;
        for block in &self.blocks {
            let n = Self::block_param_count(block);
            y = self.block_forward(g, block, y, &pvars[offset..offset + n]);
            offset += n;
        }
        let dim = self.blocks.last().expect("non-empty").dim;
        let caps = flatten_caps_graph(g, y, dim);
        self.fc.forward(g, caps, &pvars[offset..offset + 1])
    }

    fn infer_stage(
        &self,
        stage: usize,
        x: &Tensor,
        config: &ModelQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor {
        assert_eq!(
            config.layers.len(),
            self.blocks.len() + 2,
            "DeepCaps group count mismatch"
        );
        let last = self.blocks.len() + 1;
        ctx.enter_stage(stage, x.data(), x.dims()[0], |v| v);
        match stage {
            0 => self.conv.infer(x, &config.layers[0], ctx),
            s if s < last => self.block_infer(&self.blocks[s - 1], x, &config.layers[s], ctx),
            s if s == last => {
                // The capsule flatten between the last block and the output
                // layer is pure data movement, so it rides inside the final
                // stage rather than being a checkpoint of its own.
                let dim = self.blocks.last().expect("non-empty").dim;
                let caps = flatten_caps(x, dim);
                self.fc.infer(&caps, &config.layers[last], ctx)
            }
            s => panic!("DeepCaps has {} stages, got stage {s}", last + 1),
        }
    }

    fn canonical_config(&self, config: &ModelQuant) -> ModelQuant {
        assert_eq!(
            config.layers.len(),
            self.blocks.len() + 2,
            "DeepCaps group count mismatch"
        );
        let last = self.blocks.len() + 1;
        let mut c = config.clone();
        for (l, lq) in c.layers.iter_mut().enumerate() {
            if l == 0 {
                // Conv stem: no routing, no streaming datapath.
                lq.dr_frac = None;
                lq.stream_frac = None;
            } else if l < last {
                // Block groups: `block_infer` hands its sub-layers a
                // LayerQuant whose `act_frac` is the block's `stream_frac`,
                // so the routing skip of the last block resolves `Q_DR` as
                // `dr_frac.or(stream_frac)`; plain blocks never route.
                let routes = matches!(self.blocks[l - 1].skip, SkipBranch::Routing(_));
                lq.dr_frac = if routes {
                    lq.dr_frac.or(lq.stream_frac)
                } else {
                    None
                };
            } else {
                // Output capsule layer: routed, no streaming datapath.
                lq.dr_frac = lq.effective_dr_frac();
                lq.stream_frac = None;
            }
        }
        c
    }

    fn with_quantized_weights(&self, config: &ModelQuant) -> Self {
        assert_eq!(
            config.layers.len(),
            self.blocks.len() + 2,
            "DeepCaps group count mismatch"
        );
        let mut ctx = QuantCtx::from_config(config);
        let mut out = self.clone();
        ctx.enter_weights(0);
        out.conv
            .quantize_weights(config.layers[0].weight_frac, &mut ctx);
        for (i, block) in out.blocks.iter_mut().enumerate() {
            let frac = config.layers[i + 1].weight_frac;
            ctx.enter_weights(i + 1);
            block.main1.quantize_weights(frac, &mut ctx);
            block.main2.quantize_weights(frac, &mut ctx);
            match &mut block.skip {
                SkipBranch::Plain(layer) => layer.quantize_weights(frac, &mut ctx),
                SkipBranch::Routing(layer) => layer.quantize_weights(frac, &mut ctx),
            }
        }
        let last = config.layers.len() - 1;
        ctx.enter_weights(last);
        out.fc
            .quantize_weights(config.layers[last].weight_frac, &mut ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_fixed::RoundingScheme;

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
