//! The CapsNet model: one structure for every architecture, built from its
//! [`ModelDesc`]. ShallowCaps and DeepCaps differ only in the config that
//! turns into the descriptor; each config has a full-size paper variant
//! and a CPU-trainable scaled one.

mod deepcaps;
mod shallow;

pub use deepcaps::{BlockConfig, DeepCapsConfig};
pub use shallow::ShallowCapsConfig;

use crate::descriptor::{BlockDesc, GroupDesc, LayerDesc, ModelDesc};
use crate::layers::{flatten_caps, flatten_caps_graph, squash_blocks_fused, Layer};
use crate::model::{CapsNet, GroupInfo};
use crate::quant::{LayerQuant, ModelQuant, QuantCtx};
use qcn_autograd::{Graph, Var};
use qcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// ShallowCaps (Sabour et al., NIPS 2017; paper Fig. 5): Conv →
/// PrimaryCaps → DigitCaps with dynamic routing, built from a
/// [`ShallowCapsConfig`]. Quantization groups `L1`, `L2`, `L3`.
pub type ShallowCaps = CapsModel;

/// DeepCaps (Rajasegaran et al., CVPR 2019; paper Fig. 7): a conv stem,
/// residual blocks of convolutional capsules (the last block carrying a
/// dynamic-routing skip branch) and a routed fully-connected capsule
/// layer, built from a [`DeepCapsConfig`]. Quantization groups `L1`, one
/// per block (`B2`, `B3`, …) and `L<n>`.
pub type DeepCaps = CapsModel;

/// A Capsule Network: its [`ModelDesc`] plus one layer per
/// [`LayerDesc`], grouped by quantization group.
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
pub struct CapsModel {
    desc: ModelDesc,
    /// Per quantization group, its layers in descriptor order.
    groups: Vec<Vec<Layer>>,
}

impl CapsModel {
    /// Builds the model `config` describes, drawing every layer's initial
    /// weights in descriptor (registration) order from one RNG seeded with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the geometry does not fit the image or a DeepCaps
    /// config has no blocks.
    pub fn new(config: impl Into<ModelDesc>, seed: u64) -> Self {
        let desc = config.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = desc
            .groups
            .iter()
            .map(|(_, group)| {
                group
                    .layers()
                    .into_iter()
                    .map(|layer| Layer::new(layer, &mut rng))
                    .collect()
            })
            .collect();
        CapsModel { desc, groups }
    }

    /// The structural descriptor this model was built from.
    pub fn descriptor(&self) -> ModelDesc {
        self.desc.clone()
    }

    fn check_groups(&self, config: &ModelQuant) {
        assert_eq!(
            config.layers.len(),
            self.groups.len(),
            "{} has {} quantization groups",
            self.desc.name,
            self.groups.len()
        );
    }
}

impl CapsNet for CapsModel {
    fn name(&self) -> &str {
        &self.desc.name
    }

    fn num_classes(&self) -> usize {
        self.desc.num_classes
    }

    fn descriptor(&self) -> ModelDesc {
        CapsModel::descriptor(self)
    }

    fn groups(&self) -> Vec<GroupInfo> {
        let mut hw = (self.desc.image_side, self.desc.image_side);
        self.desc
            .groups
            .iter()
            .map(|(name, group)| {
                let activation_count = group.output_len(hw);
                hw = group.output_hw(hw);
                GroupInfo {
                    name: name.clone(),
                    weight_count: group.weight_count(),
                    activation_count,
                    has_routing: group.has_routing(),
                }
            })
            .collect()
    }

    fn params(&self) -> Vec<&Tensor> {
        self.groups
            .iter()
            .flatten()
            .flat_map(Layer::params)
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.groups
            .iter_mut()
            .flatten()
            .flat_map(Layer::params_mut)
            .collect()
    }

    fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        let mut pvars = pvars;
        let mut y = x;
        for ((_, group), layers) in self.desc.groups.iter().zip(&self.groups) {
            y = match group {
                GroupDesc::Layer(LayerDesc::CapsFc { in_dim, .. }) if g.value(y).rank() == 4 => {
                    let caps = flatten_caps_graph(g, y, *in_dim);
                    layers[0].forward(g, caps, &mut pvars)
                }
                GroupDesc::Layer(_) => layers[0].forward(g, y, &mut pvars),
                GroupDesc::Block(block) => {
                    let m1 = layers[0].forward(g, y, &mut pvars);
                    let m2 = layers[1].forward(g, m1, &mut pvars);
                    let skip = layers[2].forward(g, y, &mut pvars);
                    let sum = g.add(m2, skip);
                    // Final squash over the capsule dimension of the packed
                    // layout.
                    let dims = g.value(sum).dims().to_vec();
                    let (b, h, w) = (dims[0], dims[2], dims[3]);
                    let grouped = g.reshape(sum, [b, block.types, block.dim, h * w]);
                    let squashed = g.squash_axis(grouped, 2);
                    g.reshape(squashed, [b, block.types * block.dim, h, w])
                }
            };
        }
        y
    }

    fn infer_stage(
        &self,
        stage: usize,
        x: &Tensor,
        config: &ModelQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor {
        self.check_groups(config);
        ctx.enter_stage(stage, x.data(), x.dims()[0], |v| v);
        let (layers, lq) = (&self.groups[stage], &config.layers[stage]);
        match &self.desc.groups[stage].1 {
            // The capsule flatten between a conv-caps map and the output
            // layer is pure data movement, so it rides inside the stage
            // rather than being a checkpoint of its own.
            GroupDesc::Layer(LayerDesc::CapsFc { in_dim, .. }) if x.rank() == 4 => {
                layers[0].infer(&flatten_caps(x, *in_dim), lq, ctx)
            }
            GroupDesc::Layer(_) => layers[0].infer(x, lq, ctx),
            GroupDesc::Block(block) => block_infer(block, layers, x, lq, ctx),
        }
    }

    fn canonical_config(&self, config: &ModelQuant) -> ModelQuant {
        self.desc.canonical(config)
    }

    fn with_quantized_weights(&self, config: &ModelQuant) -> Self {
        self.check_groups(config);
        let mut ctx = QuantCtx::from_config(config);
        let mut out = self.clone();
        for (g, (layers, lq)) in out.groups.iter_mut().zip(&config.layers).enumerate() {
            ctx.enter_weights(g);
            for layer in layers {
                layer.quantize_weights(lq.weight_frac, &mut ctx);
            }
        }
        out
    }
}

/// One residual block, `out = squash(main2(main1(x)) + skip(x))`, on its
/// layers `[main1, main2, skip]`.
fn block_infer(
    block: &BlockDesc,
    layers: &[Layer],
    x: &Tensor,
    lq: &LayerQuant,
    ctx: &mut QuantCtx,
) -> Tensor {
    // Intra-block tensors are streaming datapath values; only the block
    // output is a stored activation, so by default only it (and the
    // routing internals, at Q_DR) are rounded. When `stream_frac` is set,
    // the streaming tensors are kept on that grid too, so the whole block
    // is executable on an integer datapath.
    let inner = LayerQuant {
        act_frac: lq.stream_frac,
        ..*lq
    };
    let m1 = layers[0].infer(x, &inner, ctx);
    let m2 = layers[1].infer(&m1, &inner, ctx);
    let skip = layers[2].infer(x, &inner, ctx);
    let sum = &m2 + &skip;
    let (b, h, w) = (sum.dims()[0], sum.dims()[2], sum.dims()[3]);
    // Block-output squash with the Qa rounding fused into the same
    // per-capsule loop (bit-identical to squash-then-round).
    let mut grouped = sum
        .reshape([b, block.types, block.dim, h * w])
        .expect("packed layout matches capsule grouping");
    let fq = ctx.fused(lq.act_frac, grouped.len());
    squash_blocks_fused(grouped.data_mut(), block.dim, h * w, fq.as_ref());
    grouped
        .reshape([b, block.types * block.dim, h, w])
        .expect("squashed capsules repack")
}
