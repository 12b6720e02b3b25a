//! The [`CapsNet`] trait: the contract between a model
//! ([`CapsModel`](crate::CapsModel), whatever its architecture) and the
//! Q-CapsNets quantization framework.

use crate::descriptor::ModelDesc;
use crate::quant::{ModelQuant, QuantCtx};
use qcn_autograd::{Graph, Var};
use qcn_tensor::Tensor;

/// Metadata about one quantization group of a model (a layer, or a DeepCaps
/// block). The Q-CapsNets framework assigns one `Qw`/`Qa`/`Q_DR` triple per
/// group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupInfo {
    /// Human-readable name (e.g. `"L1"`, `"B3"`).
    pub name: String,
    /// Number of stored weights in the group (the `P_l` of paper Eq. 6).
    pub weight_count: usize,
    /// Activation values the group emits for one input sample (for
    /// activation-memory accounting).
    pub activation_count: usize,
    /// Whether the group contains a dynamic-routing computation (framework
    /// step 4A applies).
    pub has_routing: bool,
}

/// A trainable, quantizable Capsule Network.
///
/// The framework treats models generically through this trait: it reads
/// [`groups`](CapsNet::groups) for memory accounting, runs
/// [`infer`](CapsNet::infer) under candidate [`ModelQuant`] configurations,
/// and materialises weight-quantized copies with
/// [`with_quantized_weights`](CapsNet::with_quantized_weights).
pub trait CapsNet: Clone {
    /// Architecture name (for reports).
    fn name(&self) -> &str;

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// The model's structure: every group's layers and geometry.
    fn descriptor(&self) -> ModelDesc;

    /// The quantization groups, in order from input to output.
    fn groups(&self) -> Vec<GroupInfo>;

    /// All parameters in a stable registration order.
    fn params(&self) -> Vec<&Tensor>;

    /// All parameters, mutably, in the same order as
    /// [`params`](CapsNet::params).
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Training-time forward pass. `pvars` must hold graph inputs for every
    /// parameter, in [`params`](CapsNet::params) order. Returns output
    /// capsules `[batch, classes, dim]`.
    fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var;

    /// Number of checkpointable stages in the staged inference pipeline:
    /// one per quantization group, which the search's staged backend
    /// (`qcapsnets::StagedBackend`) relies on.
    fn num_stages(&self) -> usize {
        self.groups().len()
    }

    /// Runs one stage of the inference pipeline.
    ///
    /// Stage `s` consumes the output of stage `s − 1` (the raw input batch
    /// when `s == 0`). It starts with [`QuantCtx::enter_stage`], so its
    /// stochastic rounding is keyed by the stage index and each sample's
    /// stage input: the output is a pure function of `(stage, x, config)`,
    /// and chaining all stages is the monolithic [`infer`](CapsNet::infer).
    /// The search layer relies on this to cache per-stage activation
    /// checkpoints and re-run only the suffix a candidate configuration
    /// actually changes.
    fn infer_stage(
        &self,
        stage: usize,
        x: &Tensor,
        config: &ModelQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor;

    /// Runs stages `start..num_stages()` from the checkpoint `x` (the
    /// output of stage `start − 1`). `infer_from(0, ...)` is the full
    /// forward pass.
    ///
    /// Each stage is wrapped in a telemetry span recording its wall time
    /// into the global `qcn_stage_duration_us` histogram (labelled with
    /// the engine, model and stage names). Timing only reads the clock —
    /// outputs are bit-identical with telemetry on or off — and costs one
    /// atomic load per stage when disabled.
    fn infer_from(
        &self,
        start: usize,
        x: &Tensor,
        config: &ModelQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor {
        let n = self.num_stages();
        assert!(start < n, "stage {start} out of range for {n}-stage model");
        let names = stage_names_if_enabled(self);
        let mut y = {
            let _t = stage_span("fake_quant", self.name(), names.as_deref(), start);
            self.infer_stage(start, x, config, ctx)
        };
        for s in start + 1..n {
            y = {
                let _t = stage_span("fake_quant", self.name(), names.as_deref(), s);
                self.infer_stage(s, &y, config, ctx)
            };
        }
        y
    }

    /// Inference under a quantization configuration. Weights are used as
    /// stored (quantize them first with
    /// [`with_quantized_weights`](CapsNet::with_quantized_weights));
    /// activations and routing data are rounded per `config`. Returns
    /// output capsules `[batch, classes, dim]`.
    fn infer(&self, x: &Tensor, config: &ModelQuant, ctx: &mut QuantCtx) -> Tensor {
        self.infer_from(0, x, config, ctx)
    }

    /// Maps `config` onto a canonical form that selects the same
    /// computation ([`ModelDesc::canonical`]): two configurations with
    /// equal canonical forms produce bit-identical inference, so
    /// search-time caches key on it.
    fn canonical_config(&self, config: &ModelQuant) -> ModelQuant;

    /// Returns a copy whose stored weights are rounded group-by-group to
    /// `config.layers[g].weight_frac` bits with `config.scheme`.
    fn with_quantized_weights(&self, config: &ModelQuant) -> Self;

    /// Total stored weights (sum over groups).
    fn total_weights(&self) -> usize {
        self.groups().iter().map(|g| g.weight_count).sum()
    }

    /// Classifies a batch: runs [`infer`](CapsNet::infer) and takes the
    /// argmax of output-capsule lengths via [`argmax_caps`].
    fn predict(&self, x: &Tensor, config: &ModelQuant, ctx: &mut QuantCtx) -> Vec<usize> {
        argmax_caps(&self.infer(x, config, ctx))
    }
}

/// Stage labels for span recording (the quantization-group names, one
/// per stage), resolved only when telemetry timing is on.
fn stage_names_if_enabled<M: CapsNet>(model: &M) -> Option<Vec<String>> {
    qcn_telemetry::timing_enabled().then(|| model.groups().into_iter().map(|g| g.name).collect())
}

/// Starts the span for one pipeline stage; `None` (free) when telemetry
/// is disabled. Shared by the fake-quant and integer engines so both
/// record into the same `qcn_stage_duration_us` family.
#[doc(hidden)]
pub fn stage_span(
    engine: &str,
    model: &str,
    names: Option<&[String]>,
    stage: usize,
) -> Option<qcn_telemetry::StageTimer> {
    let names = names?;
    let hist = qcn_telemetry::global().histogram(
        "qcn_stage_duration_us",
        &[
            ("engine", engine),
            ("model", model),
            ("stage", &names[stage]),
        ],
        "wall time per inference pipeline stage (microseconds)",
        &qcn_telemetry::latency_bounds_us(),
    );
    Some(qcn_telemetry::StageTimer::start(&hist))
}

/// Per-sample argmax of output-capsule lengths for a `[batch, classes,
/// dim]` capsule tensor, computed through the thread pool (same
/// tie-breaking as `argmax_rows`: first maximum wins).
///
/// This is the classification rule of [`CapsNet::predict`], exposed so the
/// search layer can classify from cached stage checkpoints without going
/// through `predict`'s full forward pass.
///
/// # Panics
///
/// Panics when `caps` has zero classes.
pub fn argmax_caps(caps: &Tensor) -> Vec<usize> {
    let (b, classes, dim) = (caps.dims()[0], caps.dims()[1], caps.dims()[2]);
    assert!(classes > 0, "predict with zero classes");
    let mut preds = vec![0usize; b];
    let data = caps.data();
    qcn_tensor::parallel::par_chunks_mut(&mut preds, 1, 64, |s, slot| {
        let sample = &data[s * classes * dim..(s + 1) * classes * dim];
        let length = |k: usize| {
            sample[k * dim..(k + 1) * dim]
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt()
        };
        let mut best = 0usize;
        let mut best_len = length(0);
        for k in 1..classes {
            let len = length(k);
            if len > best_len {
                best = k;
                best_len = len;
            }
        }
        slot[0] = best;
    });
    preds
}

/// Classification accuracy (fraction in `[0, 1]`) of `model` on a labelled
/// dataset under `config`, evaluated in mini-batches.
///
/// Stochastic rounding is keyed per sample ([`QuantCtx`]), so the result
/// does not depend on `batch_size`: every sample rounds as it would alone.
///
/// # Panics
///
/// Panics when the dataset is empty or `batch_size == 0`.
pub fn accuracy<M: CapsNet>(
    model: &M,
    dataset: &qcn_datasets::Dataset,
    config: &ModelQuant,
    batch_size: usize,
) -> f32 {
    assert!(!dataset.is_empty(), "accuracy on empty dataset");
    assert!(batch_size > 0, "batch size must be positive");
    let mut ctx = QuantCtx::from_config(config);
    let mut correct = 0usize;
    let indices: Vec<usize> = (0..dataset.len()).collect();
    for chunk in indices.chunks(batch_size) {
        let (images, labels) = dataset.batch(chunk);
        let preds = model.predict(&images, config, &mut ctx);
        correct += preds
            .iter()
            .zip(labels.iter())
            .filter(|(p, l)| p == l)
            .count();
    }
    correct as f32 / dataset.len() as f32
}
