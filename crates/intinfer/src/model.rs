//! Loading a packed model into executable integer form and running the
//! full forward pass.

use crate::epilogue::KeyedRequant;
use crate::kernels::{caps_votes, conv2d, raw_range, AccWidth, LinearWeights};
use crate::routing::{route_per_sample_raw, RoutePlan, RoutingSpec};
use crate::tensor::{flatten_caps_raw, raw_to_f32, IntTensor};
use crate::units::{squash_blocks_requant, UnitMode, UnitScratch};
use qcapsnets::export::{unpack_raw_weights, PackedModel};
use qcn_capsnet::descriptor::{BlockDesc, GroupDesc, LayerDesc, ModelDesc};
use qcn_capsnet::layers::Activation;
use qcn_capsnet::{argmax_caps, ModelQuant, QuantCtx};
use qcn_fixed::QFormat;
use qcn_tensor::conv::{Conv2dSpec, PatchTable};
use qcn_tensor::{RowEpilogue, Tensor};
use std::fmt;

/// Why a [`PackedModel`] could not be loaded into the integer engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The descriptor and the packed blob disagree on the group count.
    GroupCountMismatch {
        /// Groups in the descriptor.
        expected: usize,
        /// Groups in the packed model.
        found: usize,
    },
    /// A group was packed in full precision (no `weight_frac`): it has no
    /// raw integer form, so the integer engine cannot execute it.
    FullPrecisionGroup(String),
    /// A group is missing a fractional width the integer datapath needs
    /// (`act_frac` everywhere; `stream_frac` for DeepCaps blocks).
    MissingWidth {
        /// Group name.
        group: String,
        /// The missing `LayerQuant` field.
        field: &'static str,
    },
    /// A group's packed weight count does not match its descriptor.
    WeightCountMismatch {
        /// Group name.
        group: String,
        /// Weights the descriptor requires.
        expected: usize,
        /// Weights the blob holds.
        found: usize,
    },
    /// A quantized group's stored wordlength disagrees with its recipe:
    /// the packer always writes `1 + weight_frac` bits per weight, so a
    /// different value means the blob and the recipe were mixed up (or
    /// the field was corrupted in transit).
    WordlengthMismatch {
        /// Group name.
        group: String,
        /// `1 + weight_frac` from the recipe.
        expected: u8,
        /// Wordlength stored in the packed group.
        found: u8,
    },
    /// A group's bit stream is shorter than `count × wordlength` bits:
    /// unpacking it would read past the end of the blob.
    TruncatedBlob {
        /// Group name.
        group: String,
        /// Bits the declared count and wordlength require.
        needed_bits: usize,
        /// Bits actually present in the blob.
        have_bits: usize,
    },
    /// A group's bit stream fails its CRC-32 integrity check: the blob
    /// was corrupted in storage or transit (the geometry still parsed, so
    /// without the checksum the flipped bits would silently decode to
    /// wrong weights).
    ChecksumMismatch {
        /// Group name.
        group: String,
        /// CRC-32 recorded at pack time.
        stored: u32,
        /// CRC-32 of the bytes actually present.
        computed: u32,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::GroupCountMismatch { expected, found } => {
                write!(
                    f,
                    "descriptor has {expected} groups, packed model has {found}"
                )
            }
            LoadError::FullPrecisionGroup(g) => {
                write!(f, "group {g} is packed in full precision (no integer form)")
            }
            LoadError::MissingWidth { group, field } => {
                write!(
                    f,
                    "group {group} has no {field} (required by the integer datapath)"
                )
            }
            LoadError::WeightCountMismatch {
                group,
                expected,
                found,
            } => write!(
                f,
                "group {group}: descriptor needs {expected} weights, blob has {found}"
            ),
            LoadError::WordlengthMismatch {
                group,
                expected,
                found,
            } => write!(
                f,
                "group {group}: recipe implies a {expected}-bit wordlength, blob stores {found}"
            ),
            LoadError::TruncatedBlob {
                group,
                needed_bits,
                have_bits,
            } => write!(
                f,
                "group {group}: blob holds {have_bits} bits but {needed_bits} are declared"
            ),
            LoadError::ChecksumMismatch {
                group,
                stored,
                computed,
            } => write!(
                f,
                "group {group}: blob CRC-32 is {computed:#010x}, pack-time checksum says {stored:#010x}"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Resolved fractional widths of one loaded group.
#[derive(Debug, Clone, Copy)]
struct GroupBits {
    /// Weight width (`Qw`).
    weight: u8,
    /// Stored-activation width (`Qa`).
    act: u8,
    /// Intra-block streaming width (DeepCaps blocks only).
    stream: Option<u8>,
}

/// One linear kernel's weights and its accumulator proof.
#[derive(Debug, Clone)]
struct LinearOp {
    weights: LinearWeights,
    /// The width proved at load from the input's storage format, or `None`
    /// for a layer reading the model input — on-grid but not clamped, so
    /// its width is proved per batch from the observed range.
    width: Option<AccWidth>,
}

impl LinearOp {
    /// Proves the op's width at load: an input stored at `x_frac` is
    /// clamped into `Q1.x_frac`, which bounds it; `None` is the model input.
    fn new(weights: LinearWeights, x_frac: Option<u8>) -> Self {
        let width = x_frac.map(|f| {
            let q = QFormat::with_frac(f);
            weights.acc_width(q.min_raw(), q.max_raw(), f)
        });
        LinearOp { weights, width }
    }

    /// The width for input `x`: the load-time proof, or the observed
    /// range's for the model input. A batch that breaks the narrow proof
    /// takes the `i64` path.
    fn width_for(&self, x: &IntTensor) -> AccWidth {
        self.width.unwrap_or_else(|| {
            let (lo, hi) = raw_range(x.data());
            self.weights.acc_width(lo, hi, x.frac())
        })
    }
}

/// Builds one primitive layer's linear ops from its slice of the group's
/// raw blob (registration order): one op per kernel call —
/// ConvCapsRouting runs one convolution per input type.
fn layer_ops(layer: &LayerDesc, raw: &[i64], x_frac: Option<u8>) -> Vec<LinearOp> {
    let conv = |co: usize| {
        let (w, b) = raw.split_at(raw.len() - co);
        vec![LinearOp::new(LinearWeights::conv(w, Some(b), co), x_frac)]
    };
    match *layer {
        LayerDesc::Conv2d { out_channels, .. } => conv(out_channels),
        LayerDesc::PrimaryCaps { types, dim, .. } | LayerDesc::ConvCaps { types, dim, .. } => {
            conv(types * dim)
        }
        LayerDesc::ConvCapsRouting {
            in_types,
            out_types,
            out_dim,
            ..
        } => raw
            .chunks((raw.len() / in_types.max(1)).max(1))
            .map(|w| LinearOp::new(LinearWeights::conv(w, None, out_types * out_dim), x_frac))
            .collect(),
        LayerDesc::CapsFc {
            in_caps,
            in_dim,
            out_caps,
            out_dim,
            ..
        } => vec![LinearOp::new(
            LinearWeights::votes(raw, in_caps, out_caps, in_dim, out_dim),
            x_frac,
        )],
    }
}

/// The channels one convolution of `layer` reads and its spec; `None`
/// for a layer without convolutions.
fn conv_geometry(layer: &LayerDesc) -> Option<(usize, Conv2dSpec)> {
    match *layer {
        LayerDesc::Conv2d {
            in_channels, spec, ..
        }
        | LayerDesc::PrimaryCaps {
            in_channels, spec, ..
        }
        | LayerDesc::ConvCaps {
            in_channels, spec, ..
        } => Some((in_channels, spec)),
        LayerDesc::ConvCapsRouting { in_dim, spec, .. } => Some((in_dim, spec)),
        LayerDesc::CapsFc { .. } => None,
    }
}

/// One primitive layer's executable form: its linear ops, the patch table
/// its convolutions share and, for a routing layer, the routing plan
/// proved at load.
#[derive(Debug, Clone)]
struct LoadedLayer {
    ops: Vec<LinearOp>,
    patches: Option<PatchTable>,
    route: Option<RoutePlan>,
}

impl LoadedLayer {
    /// Loads `layer` from its raw weights for an `hw`-sized input; a
    /// routing layer routes at `dr`. Returns the layer and its output size.
    fn new(
        layer: &LayerDesc,
        raw: &[i64],
        x_frac: Option<u8>,
        dr: u8,
        hw: (usize, usize),
    ) -> (Self, (usize, usize)) {
        let route = match *layer {
            LayerDesc::ConvCapsRouting {
                in_types, out_dim, ..
            } => Some(RoutePlan::new(in_types, out_dim, dr)),
            LayerDesc::CapsFc {
                in_caps, out_dim, ..
            } => Some(RoutePlan::new(in_caps, out_dim, dr)),
            _ => None,
        };
        let patches = conv_geometry(layer).map(|(c, spec)| PatchTable::new(c, hw.0, hw.1, spec));
        let out_hw = patches
            .as_ref()
            .map_or(hw, |p| p.spec().output_hw(hw.0, hw.1));
        let loaded = LoadedLayer {
            ops: layer_ops(layer, raw, x_frac),
            patches,
            route,
        };
        (loaded, out_hw)
    }

    fn route(&self) -> &RoutePlan {
        self.route.as_ref().expect("routing layers carry a plan")
    }

    fn patches(&self) -> &PatchTable {
        self.patches
            .as_ref()
            .expect("convolution layers carry a patch table")
    }
}

/// One executable group: structure, widths, and each primitive layer (one
/// layer, or a block's main1, main2 and skip).
#[derive(Debug, Clone)]
struct LoadedGroup {
    desc: GroupDesc,
    bits: GroupBits,
    layers: Vec<LoadedLayer>,
}

/// A packed model loaded into directly executable integer form.
///
/// # Examples
///
/// ```
/// use qcapsnets::export::pack_model;
/// use qcn_capsnet::{CapsNet, ModelQuant, ShallowCaps, ShallowCapsConfig};
/// use qcn_fixed::RoundingScheme;
/// use qcn_intinfer::{IntModel, UnitMode};
/// use qcn_tensor::Tensor;
///
/// let m = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
/// let mut config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
/// for lq in &mut config.layers {
///     lq.dr_frac = Some(4);
/// }
/// let packed = pack_model(&m, &config);
/// let engine = IntModel::load(&m.descriptor(), &packed).unwrap();
/// // Inputs must sit on the deployment input grid (here Q1.5).
/// let x = Tensor::zeros([1, 1, 16, 16]);
/// let logits = engine.infer(&x, 5, UnitMode::FloatExact);
/// assert_eq!(logits.dims(), &[1, 10, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct IntModel {
    name: String,
    num_classes: usize,
    /// Group names, in execution order (the stage span labels).
    stage_names: Vec<String>,
    groups: Vec<LoadedGroup>,
    config: ModelQuant,
}

impl IntModel {
    /// Loads `packed` under the structural `desc`, validating that every
    /// group is fully executable on the integer datapath: quantized
    /// weights, an activation width, and (for DeepCaps blocks) a streaming
    /// width. Routing groups fall back to `Qa` when no explicit `Q_DR` is
    /// set, exactly like the fake-quant reference.
    ///
    /// Every structural claim the blob makes — weight count, wordlength,
    /// bit-stream length — is checked *before* any unpacking, so a
    /// truncated or corrupted blob yields a typed [`LoadError`] instead of
    /// an out-of-bounds panic inside the bit reader.
    pub fn load(desc: &ModelDesc, packed: &PackedModel) -> Result<IntModel, LoadError> {
        // Chaos site `intinfer.load`: simulate a blob corrupted in storage
        // or transit by flipping one deterministic bit of one group's
        // stream. The CRC-32 verification below must catch it.
        let chaos_storage;
        let packed = match qcn_chaos::flip_bit_at("intinfer.load") {
            Some(which) if !packed.groups.is_empty() => {
                let mut corrupted = packed.clone();
                let g = (which as usize) % corrupted.groups.len();
                let data = &mut corrupted.groups[g].data;
                if !data.is_empty() {
                    let bit = (which >> 8) as usize % (data.len() * 8);
                    data[bit / 8] ^= 1 << (bit % 8);
                }
                chaos_storage = corrupted;
                &chaos_storage
            }
            _ => packed,
        };
        if packed.groups.len() != desc.groups.len()
            || packed.config.layers.len() != desc.groups.len()
        {
            return Err(LoadError::GroupCountMismatch {
                expected: desc.groups.len(),
                found: packed.groups.len(),
            });
        }
        // `unpack_raw_weights` trusts each group's `count` and
        // `wordlength` and indexes the stream unchecked, so validate the
        // geometry of every blob first.
        for (((name, gdesc), lq), pg) in desc
            .groups
            .iter()
            .zip(&packed.config.layers)
            .zip(&packed.groups)
        {
            if let Some(weight) = lq.weight_frac {
                if pg.wordlength != 1 + weight {
                    return Err(LoadError::WordlengthMismatch {
                        group: name.clone(),
                        expected: 1 + weight,
                        found: pg.wordlength,
                    });
                }
            }
            let expected = gdesc.weight_count();
            if pg.count != expected {
                return Err(LoadError::WeightCountMismatch {
                    group: name.clone(),
                    expected,
                    found: pg.count,
                });
            }
            let needed_bits = pg.count * pg.wordlength as usize;
            let have_bits = pg.data.len() * 8;
            if have_bits < needed_bits {
                return Err(LoadError::TruncatedBlob {
                    group: name.clone(),
                    needed_bits,
                    have_bits,
                });
            }
            // Geometry checks first so a short blob stays `TruncatedBlob`;
            // the checksum then catches pure bit corruption that leaves
            // the shape intact.
            let computed = qcapsnets::export::crc32(&pg.data);
            if computed != pg.crc32 {
                return Err(LoadError::ChecksumMismatch {
                    group: name.clone(),
                    stored: pg.crc32,
                    computed,
                });
            }
        }
        let raws = unpack_raw_weights(packed);
        let mut groups = Vec::with_capacity(desc.groups.len());
        // Fractional width of the current group input: `None` for the
        // model input, then each group's stored activation width. `hw` is
        // its spatial size, which the patch tables are built for.
        let mut x_frac = None;
        let mut hw = (desc.image_side, desc.image_side);
        for (((name, gdesc), lq), raw) in desc.groups.iter().zip(&packed.config.layers).zip(raws) {
            let weight = lq
                .weight_frac
                .ok_or_else(|| LoadError::FullPrecisionGroup(name.clone()))?;
            let act = lq.act_frac.ok_or(LoadError::MissingWidth {
                group: name.clone(),
                field: "act_frac",
            })?;
            let stream = lq.stream_frac;
            let flat = raw.expect("weight_frac set implies raw form");
            let weights_of = |layer: &LayerDesc, at: usize| {
                let len = layer
                    .param_shapes()
                    .iter()
                    .map(|s| s.iter().product::<usize>())
                    .sum::<usize>();
                (&flat[at..at + len], at + len)
            };
            // Routing runs at Q_DR, falling back to the width the layer
            // stores at: Qa for a layer, the streaming width in a block
            // (the reference's inner LayerQuant has act = stream_frac).
            let layers = match gdesc {
                GroupDesc::Layer(layer) => {
                    let dr = lq.dr_frac.unwrap_or(act);
                    let (loaded, out_hw) = LoadedLayer::new(layer, &flat, x_frac, dr, hw);
                    hw = out_hw;
                    vec![loaded]
                }
                GroupDesc::Block(block) => {
                    let stream = stream.ok_or(LoadError::MissingWidth {
                        group: name.clone(),
                        field: "stream_frac",
                    })?;
                    let dr = lq.dr_frac.unwrap_or(stream);
                    let (main1, at) = weights_of(&block.main1, 0);
                    let (main2, at) = weights_of(&block.main2, at);
                    let (skip, _) = weights_of(&block.skip, at);
                    let (main1, hw1) = LoadedLayer::new(&block.main1, main1, x_frac, dr, hw);
                    let (main2, hw2) = LoadedLayer::new(&block.main2, main2, Some(stream), dr, hw1);
                    let (skip, _) = LoadedLayer::new(&block.skip, skip, x_frac, dr, hw);
                    hw = hw2;
                    vec![main1, main2, skip]
                }
            };
            groups.push(LoadedGroup {
                desc: gdesc.clone(),
                bits: GroupBits {
                    weight,
                    act,
                    stream,
                },
                layers,
            });
            x_frac = Some(act);
        }
        Ok(IntModel {
            name: desc.name.clone(),
            num_classes: desc.num_classes,
            stage_names: desc.groups.iter().map(|(name, _)| name.clone()).collect(),
            groups,
            config: packed.config.clone(),
        })
    }

    /// Architecture name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The quantization configuration the weights were packed under.
    pub fn config(&self) -> &ModelQuant {
        &self.config
    }

    /// Group names, in execution order.
    pub fn group_names(&self) -> Vec<&str> {
        self.stage_names.iter().map(String::as_str).collect()
    }

    /// The accumulator widths proved at load, per group, one entry per
    /// linear kernel in execution order (a block lists main1, main2 and
    /// skip; ConvCapsRouting one convolution per input type). `None` marks
    /// a kernel reading the model input, whose width is proved per batch
    /// from the observed input range.
    pub fn accumulator_widths(&self) -> Vec<Vec<Option<AccWidth>>> {
        self.groups
            .iter()
            .map(|g| {
                g.layers
                    .iter()
                    .flat_map(|l| &l.ops)
                    .map(|op| op.width)
                    .collect()
            })
            .collect()
    }

    /// The routing lane widths proved at load, per group, one entry per
    /// routing layer: `I32` when `max(ti, dd)·2^(2·Q_DR)` fits `i32` (the
    /// worst-case routing sum of Q1.`Q_DR` votes, couplings and outputs),
    /// `I64` otherwise.
    pub fn routing_widths(&self) -> Vec<Vec<AccWidth>> {
        self.groups
            .iter()
            .map(|g| {
                g.layers
                    .iter()
                    .flat_map(|l| &l.route)
                    .map(RoutePlan::width)
                    .collect()
            })
            .collect()
    }

    /// Bytes the loaded weights occupy: each layer keeps one copy, at its
    /// narrowest exact word (two bytes for wordlengths up to 16 bits).
    pub fn weight_bytes(&self) -> usize {
        self.groups
            .iter()
            .flat_map(|g| g.layers.iter().flat_map(|l| &l.ops))
            .map(|op| op.weights.bytes())
            .sum()
    }

    /// Runs the integer forward pass on a batch `[b, c, h, w]` whose
    /// values lie on the `2^-in_frac` input grid, returning exact-
    /// dequantized output capsules `[b, classes, dim]`.
    ///
    /// Stochastic rounding is keyed exactly like `CapsNet::infer` with the
    /// packed configuration (same seed, rounding points and per-sample
    /// keys), so in [`UnitMode::FloatExact`] the logits are bit-identical
    /// to that reference under every scheme.
    ///
    /// # Panics
    ///
    /// Panics when an input value is off-grid (see [`crate::on_grid`]) or the
    /// batch geometry does not match the model.
    pub fn infer(&self, x: &Tensor, in_frac: u8, mode: UnitMode) -> Tensor {
        let input = IntTensor::from_f32_on_grid(x, in_frac);
        self.infer_raw(input, mode).to_f32()
    }

    /// The raw-in/raw-out forward pass: [`run_stage`](IntModel::run_stage)
    /// for every group, each wrapped in a telemetry span recording its wall
    /// time into the global `qcn_stage_duration_us` histogram under
    /// `engine="integer"`, mirroring the fake-quant engine's stage spans.
    /// Timing only reads the clock; the integer datapath is untouched.
    pub fn infer_raw(&self, mut cur: IntTensor, mode: UnitMode) -> IntTensor {
        let names = qcn_telemetry::timing_enabled().then_some(self.stage_names.as_slice());
        let mut ctx = QuantCtx::from_config(&self.config);
        for s in 0..self.groups.len() {
            let _t = qcn_capsnet::stage_span("integer", &self.name, names, s);
            cur = self.run_stage(s, cur, mode, &mut ctx);
        }
        cur
    }

    /// Runs group `s` (one pipeline stage) on `cur`, the output of group
    /// `s − 1` or the model input. It enters its [`QuantCtx`] stage with
    /// the group input dequantized (the reference's stage input, bit for
    /// bit), so serving and search ([`crate::IntBackend`]) share one
    /// per-group path.
    pub(crate) fn run_stage(
        &self,
        s: usize,
        mut cur: IntTensor,
        mode: UnitMode,
        ctx: &mut QuantCtx,
    ) -> IntTensor {
        let group = &self.groups[s];
        let frac = cur.frac();
        ctx.enter_stage(s, cur.data(), cur.dims()[0], |r| raw_to_f32(r, frac));
        match &group.desc {
            GroupDesc::Layer(layer) => {
                if let LayerDesc::CapsFc { in_dim, .. } = layer {
                    if cur.rank() == 4 {
                        cur = flatten_caps_raw(&cur, *in_dim);
                    }
                }
                let (w, a) = (group.bits.weight, group.bits.act);
                run_layer(layer, &group.layers[0], w, a, cur, mode, ctx)
            }
            GroupDesc::Block(block) => run_block(block, &group.bits, &group.layers, cur, mode, ctx),
        }
    }

    /// Classifies a batch on the integer datapath: [`infer`](IntModel::infer)
    /// followed by the reference's capsule-length argmax
    /// ([`argmax_caps`]). The lengths are computed on the exact
    /// dequantized capsules, so in [`UnitMode::FloatExact`] the
    /// predictions equal the reference's bit for bit.
    pub fn predict(&self, x: &Tensor, in_frac: u8, mode: UnitMode) -> Vec<usize> {
        argmax_caps(&self.infer(x, in_frac, mode))
    }
}

/// Executes one primitive layer on its linear `ops`. `out_frac` is the
/// width its output is stored at (`Qa` for standalone layers, the
/// streaming width inside DeepCaps blocks); a routing layer's plan sets
/// its `Q_DR`. Rounding points are claimed in the reference layers' site
/// order — conv/ConvCaps bind their epilogue before the kernel,
/// ConvCapsRouting binds one per input type inside its loop, routing
/// claims one nested point.
#[allow(clippy::too_many_arguments)]
fn run_layer(
    layer: &LayerDesc,
    loaded: &LoadedLayer,
    w_frac: u8,
    out_frac: u8,
    x: IntTensor,
    mode: UnitMode,
    ctx: &mut QuantCtx,
) -> IntTensor {
    let ops = &loaded.ops;
    let acc = x.frac() + w_frac;
    // A convolution of `x` by `op` into a fresh `[b, co, oh, ow]` tensor
    // at `frac`, its geometry taken from the layer's patch table.
    let conv = |op: &LinearOp, co: usize, frac, epi: Option<RowEpilogue<'_, i64>>| {
        let (oh, ow) = loaded.patches().spec().output_hw(x.dims()[2], x.dims()[3]);
        let mut y = IntTensor::zeros(vec![x.dims()[0], co, oh, ow], frac);
        conv2d(
            &x,
            0,
            &op.weights,
            co,
            loaded.patches(),
            op.width_for(&x),
            y.data_mut(),
            epi,
        );
        y
    };
    match layer {
        LayerDesc::Conv2d {
            out_channels,
            activation,
            ..
        } => {
            let (oh, ow) = loaded.patches().spec().output_hw(x.dims()[2], x.dims()[3]);
            let len = x.dims()[0] * out_channels * oh * ow;
            let rq = KeyedRequant::bind(ctx, acc, out_frac, len);
            let act = *activation;
            let one = 1i64 << acc;
            let epi = move |off: usize, row: &mut [i64]| {
                match act {
                    Activation::None => {}
                    Activation::Relu => row.iter_mut().for_each(|v| *v = (*v).max(0)),
                    Activation::BoundedRelu => row.iter_mut().for_each(|v| *v = (*v).clamp(0, one)),
                }
                rq.apply_raw(off, row);
            };
            conv(&ops[0], *out_channels, out_frac, Some(&epi))
        }
        LayerDesc::PrimaryCaps { types, dim, .. } => {
            let (b, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
            let (oh, ow) = loaded.patches().spec().output_hw(h, w);
            let y = conv(&ops[0], types * dim, acc, None);
            let mut caps = y
                .reshape(vec![b, *types, *dim, oh * ow])
                .permute(&[0, 1, 3, 2])
                .reshape(vec![b, types * oh * ow, *dim]);
            let rq = KeyedRequant::bind(ctx, acc, out_frac, caps.data().len());
            let scratch = &mut UnitScratch::default();
            squash_blocks_requant(mode, caps.data_mut(), acc, *dim, 1, &rq, scratch);
            caps.set_frac(out_frac);
            caps
        }
        LayerDesc::ConvCaps {
            types, dim, squash, ..
        } => {
            let (b, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
            let (oh, ow) = loaded.patches().spec().output_hw(h, w);
            // The reference binds the epilogue before branching on squash.
            let len = b * types * dim * oh * ow;
            let rq = KeyedRequant::bind(ctx, acc, out_frac, len);
            if !squash {
                let epi = move |off: usize, row: &mut [i64]| rq.apply_raw(off, row);
                return conv(&ops[0], types * dim, out_frac, Some(&epi));
            }
            let y = conv(&ops[0], types * dim, acc, None);
            let mut grouped = y.reshape(vec![b, *types, *dim, oh * ow]);
            let scratch = &mut UnitScratch::default();
            squash_blocks_requant(mode, grouped.data_mut(), acc, *dim, oh * ow, &rq, scratch);
            grouped.set_frac(out_frac);
            grouped.reshape(vec![b, types * dim, oh, ow])
        }
        LayerDesc::ConvCapsRouting {
            in_types,
            in_dim,
            out_types,
            out_dim,
            iters,
            ..
        } => {
            let (b, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
            let (oh, ow) = loaded.patches().spec().output_hw(h, w);
            let s_spatial = oh * ow;
            let out_ch = out_types * out_dim;
            let plan = loaded.route();
            let dr = plan.dr();
            // Capsule-major votes `[ti, b, to, dd, s]`: type `ti`'s
            // convolution writes its `[b, out_ch, s]` slot directly.
            let mut votes =
                IntTensor::zeros(vec![*in_types, b, *out_types, *out_dim, s_spatial], dr);
            let slot = b * out_ch * s_spatial;
            for (ti, op) in ops.iter().enumerate() {
                // One rounding point per input type, claimed inside the
                // loop — same order as the reference's per-type fused conv.
                let rq = KeyedRequant::bind(ctx, acc, dr, slot);
                let epi = move |off: usize, row: &mut [i64]| rq.apply_raw(off, row);
                let v_t = &mut votes.data_mut()[ti * slot..(ti + 1) * slot];
                let width = op.width_for(&x);
                conv2d(
                    &x,
                    ti * in_dim,
                    &op.weights,
                    out_ch,
                    loaded.patches(),
                    width,
                    v_t,
                    Some(&epi),
                );
            }
            let routed = route_per_sample_raw(
                &votes,
                RoutingSpec {
                    iters: *iters,
                    ti: *in_types,
                    to: *out_types,
                    dd: *out_dim,
                    s: s_spatial,
                    out_frac,
                },
                plan,
                mode,
                ctx,
            );
            routed.reshape(vec![b, out_ch, oh, ow])
        }
        LayerDesc::CapsFc {
            in_caps,
            out_caps,
            out_dim,
            iters,
            ..
        } => {
            let b = x.dims()[0];
            let len = b * in_caps * out_caps * out_dim;
            let plan = loaded.route();
            let dr = plan.dr();
            let rq = KeyedRequant::bind(ctx, acc, dr, len);
            let epi = move |off: usize, row: &mut [i64]| rq.apply_raw(off, row);
            let op = &ops[0];
            let votes = caps_votes(
                &x,
                &op.weights,
                *out_caps,
                *out_dim,
                op.width_for(&x),
                dr,
                &epi,
            )
            .reshape(vec![*in_caps, b, *out_caps, *out_dim, 1]);
            let routed = route_per_sample_raw(
                &votes,
                RoutingSpec {
                    iters: *iters,
                    ti: *in_caps,
                    to: *out_caps,
                    dd: *out_dim,
                    s: 1,
                    out_frac,
                },
                plan,
                mode,
                ctx,
            );
            routed.reshape(vec![b, *out_caps, *out_dim])
        }
    }
}

/// Executes one DeepCaps block: `out = squash(main2(main1(x)) + skip(x))`.
/// The three branch layers stream at `stream_frac`; the residual sum is
/// exact integer addition on that shared grid; the block-output squash
/// requantizes to `Qa` through a keyed epilogue — all in the reference's
/// call order, so every site claims the reference's rounding point.
/// `layers` holds the linear ops of main1, main2 and skip.
fn run_block(
    block: &BlockDesc,
    bits: &GroupBits,
    layers: &[LoadedLayer],
    x: IntTensor,
    mode: UnitMode,
    ctx: &mut QuantCtx,
) -> IntTensor {
    let stream = bits.stream.expect("validated at load");
    let w = bits.weight;
    let m1 = run_layer(&block.main1, &layers[0], w, stream, x.clone(), mode, ctx);
    let m2 = run_layer(&block.main2, &layers[1], w, stream, m1, mode, ctx);
    let skip = run_layer(&block.skip, &layers[2], w, stream, x, mode, ctx);
    assert_eq!(m2.dims(), skip.dims(), "block branch shapes diverge");
    let (b, h, w) = (m2.dims()[0], m2.dims()[2], m2.dims()[3]);
    let mut sum = m2;
    for (o, &v) in sum.data_mut().iter_mut().zip(skip.data()) {
        *o += v;
    }
    let mut grouped = sum.reshape(vec![b, block.types, block.dim, h * w]);
    let len = grouped.data().len();
    let rq = KeyedRequant::bind(ctx, stream, bits.act, len);
    let scratch = &mut UnitScratch::default();
    squash_blocks_requant(
        mode,
        grouped.data_mut(),
        stream,
        block.dim,
        h * w,
        &rq,
        scratch,
    );
    grouped.set_frac(bits.act);
    grouped.reshape(vec![b, block.types * block.dim, h, w])
}
