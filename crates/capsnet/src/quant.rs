//! Per-layer quantization hooks consumed by the inference paths.
//!
//! The Q-CapsNets framework (in the `qcapsnets` crate) searches over these
//! structures; the layers here only *apply* them, at the points marked in
//! paper Fig. 9: weights at `Qw`, layer outputs at `Qa`, and dynamic-routing
//! intermediates (û, b, c, s, a) at the more aggressive `Q_DR`.

use qcn_fixed::{sr_key, FusedQuant, QFormat, Quantizer, RoundingScheme};
use qcn_tensor::Tensor;
use std::fmt;

/// Fractional-bit widths for one quantization group (layer or block).
///
/// `None` means "leave in full precision". All formats use the paper's
/// 1-bit integer part for activations/routing data; weights also use 1
/// integer bit (the framework's step 1 normalises weights into [−1, 1)).
///
/// # Examples
///
/// ```
/// use qcn_capsnet::LayerQuant;
///
/// let q = LayerQuant::uniform(8);
/// assert_eq!(q.weight_frac, Some(8));
/// assert_eq!(q.act_frac, Some(8));
/// assert_eq!(q.dr_frac, None); // DR bits only set by framework step 4A
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LayerQuant {
    /// Fractional bits for the layer's weights (`Qw`).
    pub weight_frac: Option<u8>,
    /// Fractional bits for the layer's output activations (`Qa`).
    pub act_frac: Option<u8>,
    /// Fractional bits for dynamic-routing intermediates (`Q_DR`).
    pub dr_frac: Option<u8>,
    /// Fractional bits for intra-block streaming tensors (DeepCaps block
    /// internals between `main1`/`main2`/`skip` and the block-output
    /// squash). `None` keeps those tensors in full precision, matching the
    /// fake-quant default where only stored activations are rounded;
    /// setting it puts the whole block datapath on a fixed-point grid,
    /// which is what a true integer backend executes.
    pub stream_frac: Option<u8>,
}

impl LayerQuant {
    /// Full precision (no quantization anywhere).
    pub fn full_precision() -> Self {
        LayerQuant::default()
    }

    /// Same fractional width for weights and activations (framework step 1).
    pub fn uniform(frac: u8) -> Self {
        LayerQuant {
            weight_frac: Some(frac),
            act_frac: Some(frac),
            dr_frac: None,
            stream_frac: None,
        }
    }

    /// The routing width to use: explicit `dr_frac` when set, otherwise the
    /// activation width (before step 4A the paper treats routing data as
    /// ordinary activations).
    pub fn effective_dr_frac(&self) -> Option<u8> {
        self.dr_frac.or(self.act_frac)
    }
}

/// A complete quantization configuration for a model: one [`LayerQuant`]
/// per quantization group plus the rounding scheme.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelQuant {
    /// Per-group widths, in model group order.
    pub layers: Vec<LayerQuant>,
    /// Rounding scheme used for every rounding operation.
    pub scheme: RoundingScheme,
    /// Seed for stochastic rounding (ignored by TRN/RTN). A fixed seed
    /// makes SR inference deterministic and reproducible.
    pub seed: u64,
}

impl ModelQuant {
    /// Full-precision configuration for `n` groups.
    pub fn full_precision(n: usize) -> Self {
        ModelQuant {
            layers: vec![LayerQuant::full_precision(); n],
            scheme: RoundingScheme::RoundToNearest,
            seed: 0,
        }
    }

    /// Uniform `frac` bits for weights and activations in all `n` groups
    /// (the framework's step-1 configuration).
    pub fn uniform(n: usize, frac: u8, scheme: RoundingScheme) -> Self {
        ModelQuant {
            layers: vec![LayerQuant::uniform(frac); n],
            scheme,
            seed: 0,
        }
    }

    /// Returns `true` when no group quantizes anything.
    pub fn is_full_precision(&self) -> bool {
        self.layers.iter().all(|l| {
            l.weight_frac.is_none()
                && l.act_frac.is_none()
                && l.dr_frac.is_none()
                && l.stream_frac.is_none()
        })
    }
}

impl fmt::Display for ModelQuant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.scheme)?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            let show = |b: Option<u8>| b.map_or("fp".to_string(), |v| v.to_string());
            write!(
                f,
                "w:{} a:{} dr:{}",
                show(l.weight_frac),
                show(l.act_frac),
                show(l.dr_frac)
            )?;
            if let Some(s) = l.stream_frac {
                write!(f, " s:{s}")?;
            }
        }
        write!(f, "]")
    }
}

/// Runtime quantization context threaded through a quantized inference
/// pass: the rounding scheme plus the keys that make stochastic rounding
/// a pure function of the data.
///
/// Every stochastic draw is keyed by four things: the model seed, a fixed
/// rounding-point id, a per-sample key and the element's offset within its
/// sample. The point id is the ordinal of the rounding site within its
/// scope — a pipeline stage ([`enter_stage`](QuantCtx::enter_stage)), one
/// group's weights ([`enter_weights`](QuantCtx::enter_weights)), or one
/// routing call ([`nested`](QuantCtx::nested)) — fixed by the code path,
/// never by how many draws came before. The sample key hashes the
/// sample's stage input. So a sample's rounding does not depend on the
/// batch it rides in (batch invariance), and a stage's output depends only
/// on that stage's input (stage purity). The context holds no RNG state.
#[derive(Debug, Clone)]
pub struct QuantCtx {
    scheme: RoundingScheme,
    seed: u64,
    /// Key of the current scope of rounding points.
    scope: u64,
    /// Rounding sites claimed so far within the scope.
    site: u64,
    /// Per-sample keys of the current stage input; empty outside a stage
    /// and for deterministic schemes, in which case each rounded tensor
    /// is one stream.
    keys: Vec<u64>,
}

impl QuantCtx {
    /// Creates a context for one inference pass.
    pub fn new(scheme: RoundingScheme, seed: u64) -> Self {
        QuantCtx {
            scheme,
            seed,
            scope: sr_key(seed, 0),
            site: 0,
            keys: Vec::new(),
        }
    }

    /// Context from a [`ModelQuant`].
    pub fn from_config(config: &ModelQuant) -> Self {
        QuantCtx::new(config.scheme, config.seed)
    }

    /// The rounding scheme in effect.
    pub fn scheme(&self) -> RoundingScheme {
        self.scheme
    }

    /// Enters pipeline stage `stage`, whose `input` holds `batch` samples
    /// back to back; `value` reads one element as `f32`. Under stochastic
    /// rounding each sample's values are hashed (FNV-1a over the `f32`
    /// bits, −0.0 folded into +0.0) into its key; deterministic schemes
    /// skip the hashing.
    pub fn enter_stage<T: Copy>(
        &mut self,
        stage: usize,
        input: &[T],
        batch: usize,
        value: impl Fn(T) -> f32,
    ) {
        self.enter_scope(2 * stage as u64);
        if self.scheme == RoundingScheme::Stochastic && batch > 0 {
            let samples = input.chunks((input.len() / batch).max(1));
            let keys = samples.map(|s| sample_key(s.iter().map(|&v| value(v))));
            self.keys.extend(keys);
        }
    }

    /// Enters the weight rounding of quantization group `group`: its
    /// points carry no sample key, each weight tensor is one stream.
    pub fn enter_weights(&mut self, group: usize) {
        self.enter_scope(2 * group as u64 + 1);
    }

    fn enter_scope(&mut self, id: u64) {
        self.scope = sr_key(self.seed, id);
        self.site = 0;
        self.keys.clear();
    }

    /// Claims the next rounding site as a scope of its own, for a unit
    /// (the routing loop) that rounds at several sites and may run per
    /// sample: its sites are numbered inside the returned context.
    pub fn nested(&mut self) -> QuantCtx {
        QuantCtx {
            scope: self.point(),
            site: 0,
            ..self.clone()
        }
    }

    /// The context of sample `s` of the current batch alone, for work
    /// dispatched per sample; it rounds exactly as the whole batch would.
    pub fn sample(&self, s: usize) -> QuantCtx {
        QuantCtx {
            keys: self.keys.get(s).map(|&k| vec![k]).unwrap_or_default(),
            ..self.clone()
        }
    }

    /// Claims the next rounding site, returning its point key.
    fn point(&mut self) -> u64 {
        self.site += 1;
        sr_key(self.scope, self.site)
    }

    /// Claims the next rounding site and binds its [`FusedQuant`] writeback
    /// epilogue for a `len`-element output spanning the current batch,
    /// quantized to `frac` fractional bits (1 integer bit) — or `None` in
    /// full precision. The site is claimed either way, so later point ids
    /// never depend on `frac`.
    pub fn fused(&mut self, frac: Option<u8>, len: usize) -> Option<FusedQuant> {
        let point = self.point();
        let q = Quantizer::new(QFormat::with_frac(frac?), self.scheme);
        if self.keys.is_empty() {
            return Some(q.fused(point));
        }
        debug_assert_eq!(len % self.keys.len(), 0, "output must span the batch");
        let bases = self.keys.iter().map(|&k| sr_key(point, k)).collect();
        Some(q.fused_per_sample(bases, len / self.keys.len()))
    }

    /// Quantizes `t` at the next rounding site to `frac` fractional bits
    /// (1 integer bit) when `frac` is set; returns `t` unchanged otherwise.
    pub fn round(&mut self, t: Tensor, frac: Option<u8>) -> Tensor {
        let mut out = t;
        if let Some(fq) = self.fused(frac, out.len()) {
            fq.quantize_inplace(&mut out);
        }
        out
    }
}

/// Key of one sample's stage input: FNV-1a over the `f32` bit patterns,
/// with −0.0 folded into +0.0 so that equal values always give equal keys
/// (the integer engine, which has no negative zero, hashes its words
/// dequantized and matches the fake-quant keys exactly).
fn sample_key(values: impl IntoIterator<Item = f32>) -> u64 {
    values.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, v| {
        let bits = if v == 0.0 { 0 } else { v.to_bits() };
        (h ^ u64::from(bits)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sets_weights_and_acts() {
        let q = LayerQuant::uniform(6);
        assert_eq!(q.weight_frac, Some(6));
        assert_eq!(q.act_frac, Some(6));
        assert_eq!(q.effective_dr_frac(), Some(6));
    }

    #[test]
    fn dr_frac_overrides_act_for_routing() {
        let q = LayerQuant {
            weight_frac: Some(8),
            act_frac: Some(6),
            dr_frac: Some(3),
            ..LayerQuant::full_precision()
        };
        assert_eq!(q.effective_dr_frac(), Some(3));
    }

    #[test]
    fn full_precision_detection() {
        assert!(ModelQuant::full_precision(3).is_full_precision());
        assert!(!ModelQuant::uniform(3, 8, RoundingScheme::Truncation).is_full_precision());
    }

    #[test]
    fn ctx_round_none_is_identity() {
        let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
        let t = Tensor::from_vec(vec![0.123, -0.456], [2]).unwrap();
        assert_eq!(ctx.round(t.clone(), None), t);
    }

    #[test]
    fn ctx_round_quantizes_onto_grid() {
        let mut ctx = QuantCtx::new(RoundingScheme::RoundToNearest, 0);
        let t = Tensor::from_vec(vec![0.123, -0.456], [2]).unwrap();
        let q = ctx.round(t, Some(2));
        assert_eq!(q.data(), &[0.0, -0.5]);
    }

    #[test]
    fn stochastic_ctx_is_seed_deterministic() {
        let t = Tensor::from_fn([64], |i| (i[0] as f32 / 64.0) - 0.5);
        let mut a = QuantCtx::new(RoundingScheme::Stochastic, 9);
        let mut b = QuantCtx::new(RoundingScheme::Stochastic, 9);
        assert_eq!(a.round(t.clone(), Some(3)), b.round(t, Some(3)));
    }

    /// A sample's stochastic rounding is a function of its own stage input
    /// and the site: the same sample rounds identically alone, in either
    /// slot of a pair, and through its per-sample context.
    #[test]
    fn sample_keyed_rounding_is_batch_invariant() {
        let sample = |k: f32| Tensor::from_fn([1, 32], move |i| (i[1] as f32 * 0.031 - 0.5) * k);
        let (a, b) = (sample(1.0), sample(-0.7));
        let round = |batch: &Tensor| {
            let mut ctx = QuantCtx::new(RoundingScheme::Stochastic, 5);
            ctx.enter_stage(1, batch.data(), batch.dims()[0], |v| v);
            ctx.round(batch.clone(), Some(3))
        };
        let alone = round(&a);
        let pair = |x: &Tensor, y: &Tensor| {
            Tensor::from_vec([x.data(), y.data()].concat(), [2, 32]).unwrap()
        };
        let ba = pair(&b, &a);
        assert_eq!(&round(&pair(&a, &b)).data()[..32], alone.data());
        assert_eq!(&round(&ba).data()[32..], alone.data());
        let mut ctx = QuantCtx::new(RoundingScheme::Stochastic, 5);
        ctx.enter_stage(1, ba.data(), 2, |v| v);
        assert_eq!(
            ctx.sample(1).round(a.clone(), Some(3)),
            alone,
            "per-sample context matches the batch"
        );
        let nested = ctx.nested();
        assert_ne!(
            nested.sample(1).round(a, Some(3)),
            alone,
            "a nested scope has its own points"
        );
    }

    #[test]
    fn sample_key_folds_negative_zero() {
        assert_eq!(sample_key([0.0, 1.5]), sample_key([-0.0, 1.5]));
        assert_ne!(sample_key([0.25, 1.5]), sample_key([1.5, 0.25]));
    }

    #[test]
    fn display_shows_fp_and_bits() {
        let mut q = ModelQuant::uniform(2, 5, RoundingScheme::Stochastic);
        q.layers[1].dr_frac = Some(3);
        let s = q.to_string();
        assert!(s.contains("SR"), "{s}");
        assert!(s.contains("dr:3"), "{s}");
        assert!(s.contains("dr:fp"), "{s}");
    }
}
