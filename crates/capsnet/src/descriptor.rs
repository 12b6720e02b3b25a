//! The structure of a model as plain data: the only source of model
//! geometry in the repository.
//!
//! A [`ModelDesc`] lists a model's quantization groups in order, each a
//! primitive [`LayerDesc`] or a DeepCaps [`BlockDesc`], with every
//! parameter tensor's shape in registration order (the order
//! `CapsNet::params` returns and `qcapsnets::export` packs them). Both
//! engines execute it: `CapsModel::new` builds one layer per `LayerDesc`,
//! and the integer engine in `qcn-intinfer` loads exported weight blobs
//! against it. The architecture configs (`ShallowCapsConfig`,
//! `DeepCapsConfig`) turn into a descriptor with `From`, which is where
//! their geometry is derived. The quantization rule that maps a
//! configuration onto the fields its groups read lives here too, as
//! [`ModelDesc::canonical`].

use crate::layers::Activation;
use crate::quant::ModelQuant;
use qcn_tensor::conv::Conv2dSpec;

/// Geometry of one primitive layer, sufficient to re-execute it from raw
/// parameter blobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerDesc {
    /// Plain convolution + activation (the conv stem).
    Conv2d {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Convolution geometry.
        spec: Conv2dSpec,
        /// Post-conv activation.
        activation: Activation,
    },
    /// PrimaryCaps: conv → capsule grouping → squash, emitting a capsule
    /// list `[b, types·oh·ow, dim]`.
    PrimaryCaps {
        /// Input channels.
        in_channels: usize,
        /// Capsule types.
        types: usize,
        /// Capsule dimensionality.
        dim: usize,
        /// Convolution geometry.
        spec: Conv2dSpec,
    },
    /// DeepCaps ConvCaps: conv over the packed `types·dim` layout, with an
    /// optional squash over the capsule dimension.
    ConvCaps {
        /// Packed input channels (`in_types · in_dim`).
        in_channels: usize,
        /// Output capsule types.
        types: usize,
        /// Output capsule dimensionality.
        dim: usize,
        /// Convolution geometry.
        spec: Conv2dSpec,
        /// Whether the layer squashes its output (skipped when the output
        /// is summed with a parallel branch and squashed afterwards).
        squash: bool,
    },
    /// DeepCaps routing skip layer: per-input-type vote convolutions
    /// followed by dynamic routing across input types.
    ConvCapsRouting {
        /// Input capsule types.
        in_types: usize,
        /// Input capsule dimensionality.
        in_dim: usize,
        /// Output capsule types.
        out_types: usize,
        /// Output capsule dimensionality.
        out_dim: usize,
        /// Convolution geometry of the per-type vote convs.
        spec: Conv2dSpec,
        /// Dynamic-routing iterations.
        iters: usize,
    },
    /// Fully-connected capsule layer with dynamic routing (DigitCaps).
    CapsFc {
        /// Input capsule count.
        in_caps: usize,
        /// Input capsule dimensionality.
        in_dim: usize,
        /// Output capsule count.
        out_caps: usize,
        /// Output capsule dimensionality.
        out_dim: usize,
        /// Dynamic-routing iterations.
        iters: usize,
    },
}

impl LayerDesc {
    /// Shapes of this layer's parameter tensors, in registration order
    /// (the order `CapsNet::params` returns and `qcapsnets::export` packs).
    pub fn param_shapes(&self) -> Vec<Vec<usize>> {
        match *self {
            LayerDesc::Conv2d {
                in_channels,
                out_channels,
                spec,
                ..
            } => vec![
                vec![out_channels, in_channels, spec.kh, spec.kw],
                vec![out_channels],
            ],
            LayerDesc::PrimaryCaps {
                in_channels,
                types,
                dim,
                spec,
            } => vec![
                vec![types * dim, in_channels, spec.kh, spec.kw],
                vec![types * dim],
            ],
            LayerDesc::ConvCaps {
                in_channels,
                types,
                dim,
                spec,
                ..
            } => vec![
                vec![types * dim, in_channels, spec.kh, spec.kw],
                vec![types * dim],
            ],
            LayerDesc::ConvCapsRouting {
                in_types,
                in_dim,
                out_types,
                out_dim,
                spec,
                ..
            } => vec![vec![
                in_types,
                out_types * out_dim,
                in_dim,
                spec.kh,
                spec.kw,
            ]],
            LayerDesc::CapsFc {
                in_caps,
                in_dim,
                out_caps,
                out_dim,
                ..
            } => vec![vec![in_caps, out_caps, in_dim, out_dim]],
        }
    }

    /// Total stored weights of this layer.
    pub fn weight_count(&self) -> usize {
        self.param_shapes()
            .iter()
            .map(|s| s.iter().product::<usize>())
            .sum()
    }

    /// Whether the layer runs dynamic routing (framework step 4A applies).
    pub fn has_routing(&self) -> bool {
        matches!(
            self,
            LayerDesc::ConvCapsRouting { .. } | LayerDesc::CapsFc { .. }
        )
    }

    /// Spatial size of the output for an `hw` input. A capsule list
    /// ([`LayerDesc::CapsFc`]) has no spatial axes and passes `hw` on.
    pub fn output_hw(&self, hw: (usize, usize)) -> (usize, usize) {
        match *self {
            LayerDesc::Conv2d { spec, .. }
            | LayerDesc::PrimaryCaps { spec, .. }
            | LayerDesc::ConvCaps { spec, .. }
            | LayerDesc::ConvCapsRouting { spec, .. } => spec.output_hw(hw.0, hw.1),
            LayerDesc::CapsFc { .. } => hw,
        }
    }

    /// Values the layer emits per sample for an `hw` input.
    pub fn output_len(&self, hw: (usize, usize)) -> usize {
        let (oh, ow) = self.output_hw(hw);
        match *self {
            LayerDesc::Conv2d { out_channels, .. } => out_channels * oh * ow,
            LayerDesc::PrimaryCaps { types, dim, .. } | LayerDesc::ConvCaps { types, dim, .. } => {
                types * dim * oh * ow
            }
            LayerDesc::ConvCapsRouting {
                out_types, out_dim, ..
            } => out_types * out_dim * oh * ow,
            LayerDesc::CapsFc {
                out_caps, out_dim, ..
            } => out_caps * out_dim,
        }
    }
}

/// One DeepCaps residual block: `out = squash(main2(main1(x)) + skip(x))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDesc {
    /// First main-branch ConvCaps (strided, squashing).
    pub main1: LayerDesc,
    /// Second main-branch ConvCaps (unit stride, no squash).
    pub main2: LayerDesc,
    /// Skip branch: plain [`LayerDesc::ConvCaps`] for inner blocks, a
    /// [`LayerDesc::ConvCapsRouting`] for the last block.
    pub skip: LayerDesc,
    /// Capsule types of the block output.
    pub types: usize,
    /// Capsule dimensionality of the block output.
    pub dim: usize,
}

/// One quantization group: a primitive layer or a DeepCaps block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupDesc {
    /// A primitive layer.
    Layer(LayerDesc),
    /// A DeepCaps residual block.
    Block(BlockDesc),
}

impl GroupDesc {
    /// The group's primitive layers in execution and registration order:
    /// the layer itself, or a block's `main1`, `main2` and `skip`.
    pub fn layers(&self) -> Vec<&LayerDesc> {
        match self {
            GroupDesc::Layer(l) => vec![l],
            GroupDesc::Block(b) => vec![&b.main1, &b.main2, &b.skip],
        }
    }

    /// Shapes of all parameter tensors in the group, in registration order
    /// (`main1.weight, main1.bias, main2.weight, main2.bias, skip…` for
    /// blocks).
    pub fn param_shapes(&self) -> Vec<Vec<usize>> {
        self.layers()
            .into_iter()
            .flat_map(LayerDesc::param_shapes)
            .collect()
    }

    /// Total stored weights of the group.
    pub fn weight_count(&self) -> usize {
        self.layers().into_iter().map(LayerDesc::weight_count).sum()
    }

    /// Whether any layer of the group runs dynamic routing.
    pub fn has_routing(&self) -> bool {
        self.layers().into_iter().any(LayerDesc::has_routing)
    }

    /// Spatial size of the group output for an `hw` input (a block's
    /// output is its main branch's).
    pub fn output_hw(&self, hw: (usize, usize)) -> (usize, usize) {
        match self {
            GroupDesc::Layer(l) => l.output_hw(hw),
            GroupDesc::Block(b) => b.main2.output_hw(b.main1.output_hw(hw)),
        }
    }

    /// Activation values the group stores per sample for an `hw` input.
    /// Inside a block only the output is a stored activation.
    pub fn output_len(&self, hw: (usize, usize)) -> usize {
        match self {
            GroupDesc::Layer(l) => l.output_len(hw),
            GroupDesc::Block(b) => b.main2.output_len(b.main1.output_hw(hw)),
        }
    }
}

/// Full structural description of a model: input geometry plus the ordered
/// quantization groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelDesc {
    /// Architecture name (`"ShallowCaps"` / `"DeepCaps"`).
    pub name: String,
    /// Input channels.
    pub in_channels: usize,
    /// Input image side length (square inputs).
    pub image_side: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Quantization groups `(name, structure)`, input to output — same
    /// order and names as `CapsNet::groups`.
    pub groups: Vec<(String, GroupDesc)>,
}

impl ModelDesc {
    /// Maps `config` onto a canonical form that selects the same
    /// computation: fields a group's inference never reads are cleared and
    /// the `Q_DR` fallback is resolved, so two configurations with equal
    /// canonical forms produce bit-identical inference. Search-time caches
    /// key on it, and the integer engine loads it.
    ///
    /// The rule, per group: `stream_frac` is read only by blocks (their
    /// inner layers store at it). `Q_DR` is read only by routing groups,
    /// and falls back to the width the routing layer stores at: `Qa` for a
    /// layer, the streaming width inside a block.
    ///
    /// # Panics
    ///
    /// Panics when `config` has a different group count.
    pub fn canonical(&self, config: &ModelQuant) -> ModelQuant {
        assert_eq!(
            config.layers.len(),
            self.groups.len(),
            "{} has {} quantization groups",
            self.name,
            self.groups.len()
        );
        let mut c = config.clone();
        for ((_, group), lq) in self.groups.iter().zip(&mut c.layers) {
            let stored = match group {
                GroupDesc::Layer(_) => {
                    lq.stream_frac = None;
                    lq.act_frac
                }
                GroupDesc::Block(_) => lq.stream_frac,
            };
            lq.dr_frac = if group.has_routing() {
                lq.dr_frac.or(stored)
            } else {
                None
            };
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CapsNet;
    use crate::models::{DeepCaps, DeepCapsConfig, ShallowCaps, ShallowCapsConfig};

    #[test]
    fn shallow_descriptor_matches_group_metadata() {
        let m = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
        let desc = m.descriptor();
        let groups = m.groups();
        assert_eq!(desc.groups.len(), groups.len());
        for ((name, gd), info) in desc.groups.iter().zip(&groups) {
            assert_eq!(name, &info.name);
            assert_eq!(gd.weight_count(), info.weight_count, "group {name}");
        }
        // Shapes must also match the registered parameter tensors one-to-one.
        let shapes: Vec<Vec<usize>> = desc
            .groups
            .iter()
            .flat_map(|(_, g)| g.param_shapes())
            .collect();
        let params = m.params();
        assert_eq!(shapes.len(), params.len());
        for (shape, p) in shapes.iter().zip(&params) {
            assert_eq!(shape.as_slice(), p.dims());
        }
    }

    #[test]
    fn deep_descriptor_matches_group_metadata() {
        let m = DeepCaps::new(DeepCapsConfig::small(1), 0);
        let desc = m.descriptor();
        let groups = m.groups();
        assert_eq!(desc.groups.len(), groups.len());
        for ((name, gd), info) in desc.groups.iter().zip(&groups) {
            assert_eq!(name, &info.name);
            assert_eq!(gd.weight_count(), info.weight_count, "group {name}");
        }
        let shapes: Vec<Vec<usize>> = desc
            .groups
            .iter()
            .flat_map(|(_, g)| g.param_shapes())
            .collect();
        let params = m.params();
        assert_eq!(shapes.len(), params.len());
        for (shape, p) in shapes.iter().zip(&params) {
            assert_eq!(shape.as_slice(), p.dims());
        }
        // The last block's skip branch routes.
        match &desc.groups[desc.groups.len() - 2].1 {
            GroupDesc::Block(b) => {
                assert!(matches!(b.skip, LayerDesc::ConvCapsRouting { .. }))
            }
            _ => panic!("second-to-last group must be a block"),
        }
    }

    #[test]
    fn canonical_resolves_dr_only_where_it_is_read() {
        use crate::quant::ModelQuant;
        use qcn_fixed::RoundingScheme;
        let desc = DeepCaps::new(DeepCapsConfig::small(1), 0).descriptor();
        let mut config = ModelQuant::uniform(4, 5, RoundingScheme::RoundToNearest);
        for (g, lq) in config.layers.iter_mut().enumerate() {
            lq.dr_frac = (g % 2 == 1).then_some(3);
            lq.stream_frac = Some(4 + g as u8);
        }
        let c = desc.canonical(&config);
        let dr: Vec<_> = c.layers.iter().map(|l| l.dr_frac).collect();
        let stream: Vec<_> = c.layers.iter().map(|l| l.stream_frac).collect();
        // L1 and B2 never route; B3 falls back to its streaming width; L4
        // keeps its explicit Q_DR.
        assert_eq!(dr, [None, None, Some(6), Some(3)]);
        // Only blocks stream.
        assert_eq!(stream, [None, Some(5), Some(6), None]);
    }

    #[test]
    fn paper_descriptors_are_consistent_too() {
        let m = DeepCaps::new(DeepCapsConfig::paper(3), 0);
        let desc = m.descriptor();
        let total: usize = desc.groups.iter().map(|(_, g)| g.weight_count()).sum();
        assert_eq!(total, m.total_weights());
    }
}
