//! Warm, immutable inference engines the service executes batches on.
//!
//! A [`ServeEngine`] wraps one of the repo's two inference datapaths —
//! fake-quant f32 ([`FakeQuantEngine`]) or true integer fixed-point
//! ([`IntEngine`]) — behind a uniform "run this batch" interface. Engines
//! are constructed once (weights quantized, one warm-up pass to learn the
//! output geometry and fault early on broken models) and then shared
//! immutably across worker threads.
//!
//! ## The batch-fusion contract
//!
//! The service promises that every response is **bit-identical to a
//! sequential single-sample inference** of the same request, no matter how
//! requests were batched. Every engine fuses its batches into one kernel
//! invocation, because per-sample outputs never depend on the batch a
//! sample rides in:
//!
//! * Every kernel in both datapaths computes each sample's outputs from
//!   that sample's inputs alone, with a per-element reduction order fixed
//!   by the kernel (conv rows, vote panels and routing all dispatch per
//!   sample) — so the arithmetic is batch-invariant.
//! * Every rounding site keys its stochastic draws by the model seed, a
//!   fixed rounding-point id, a hash of the sample's stage input and the
//!   element's offset within the sample — never by batch slot — so all
//!   four rounding schemes are batch-invariant too
//!   (`tests/batch_invariance.rs` checks random partitions, and
//!   `tests/serving_determinism.rs` soaks the server).

use qcn_capsnet::{CapsNet, ModelQuant, QuantCtx};
use qcn_intinfer::{IntModel, UnitMode};
use qcn_tensor::Tensor;

/// A warm inference engine the service can route batches to.
///
/// Implementations must be cheap to call repeatedly (all one-time work in
/// the constructor) and safe to share across threads.
pub trait ServeEngine: Send + Sync {
    /// Short datapath label for reports (e.g. `"fake_quant"`, `"integer"`).
    fn kind(&self) -> &str;

    /// Per-sample input dimensions `[c, h, w]`.
    fn input_dims(&self) -> &[usize];

    /// Per-sample output dimensions `[classes, dim]`.
    fn output_dims(&self) -> &[usize];

    /// The fractional width of the grid every input value must lie on
    /// (`Some(f)`: multiples of `2^-f`), or `None` when any `f32` runs.
    /// The server rejects an off-grid sample at submit
    /// ([`SubmitError::OffGrid`](crate::SubmitError::OffGrid)), so it never
    /// fails the batch it would have joined.
    fn input_grid(&self) -> Option<u8> {
        None
    }

    /// Runs one engine invocation over `x` (`[b, c, h, w]`), returning
    /// output capsules `[b, classes, dim]`. Each invocation behaves like a
    /// fresh single call to the underlying datapath: a new quantization
    /// context seeded from the model configuration, exactly like
    /// `CapsNet::infer` / `IntModel::infer`.
    fn infer_batch(&self, x: &Tensor) -> Tensor;
}

/// Runs a warm-up sample through `infer` to learn the per-sample output
/// geometry (and fail fast on a model that cannot execute).
fn probe_output_dims(input_dims: &[usize], infer: impl Fn(&Tensor) -> Tensor) -> Vec<usize> {
    let mut dims = vec![1usize];
    dims.extend_from_slice(input_dims);
    let out = infer(&Tensor::zeros(dims));
    assert_eq!(
        out.dims().len(),
        3,
        "engines must produce [b, classes, dim] capsules"
    );
    out.dims()[1..].to_vec()
}

/// The fake-quant f32 datapath as a serving engine: a weight-quantized
/// model evaluated with per-layer activation/routing rounding.
///
/// # Examples
///
/// ```
/// use qcn_capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
/// use qcn_fixed::RoundingScheme;
/// use qcn_serve::{FakeQuantEngine, ServeEngine};
/// use qcn_tensor::Tensor;
///
/// let model = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
/// let config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
/// let engine = FakeQuantEngine::new(&model, config, [1, 16, 16]);
/// let out = engine.infer_batch(&Tensor::zeros([2, 1, 16, 16]));
/// assert_eq!(out.dims(), &[2, 10, 8]);
/// ```
pub struct FakeQuantEngine<M: CapsNet + Send + Sync> {
    qmodel: M,
    config: ModelQuant,
    input_dims: Vec<usize>,
    output_dims: Vec<usize>,
}

impl<M: CapsNet + Send + Sync> FakeQuantEngine<M> {
    /// Quantizes `model`'s weights under `config` and warms the engine.
    /// `input_dims` is the per-sample `[c, h, w]` geometry.
    pub fn new(model: &M, config: ModelQuant, input_dims: [usize; 3]) -> Self {
        let qmodel = model.with_quantized_weights(&config);
        let output_dims = probe_output_dims(&input_dims, |x| {
            let mut ctx = QuantCtx::from_config(&config);
            qmodel.infer(x, &config, &mut ctx)
        });
        FakeQuantEngine {
            qmodel,
            config,
            input_dims: input_dims.to_vec(),
            output_dims,
        }
    }

    /// The quantization configuration inference runs under.
    pub fn config(&self) -> &ModelQuant {
        &self.config
    }
}

impl<M: CapsNet + Send + Sync> ServeEngine for FakeQuantEngine<M> {
    fn kind(&self) -> &str {
        "fake_quant"
    }

    fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    fn output_dims(&self) -> &[usize] {
        &self.output_dims
    }

    fn infer_batch(&self, x: &Tensor) -> Tensor {
        let mut ctx = QuantCtx::from_config(&self.config);
        self.qmodel.infer(x, &self.config, &mut ctx)
    }
}

/// The true integer fixed-point datapath as a serving engine: a loaded
/// [`IntModel`] executed at a fixed input grid and unit mode.
///
/// # Examples
///
/// ```
/// use qcapsnets::export::pack_model;
/// use qcn_capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
/// use qcn_fixed::RoundingScheme;
/// use qcn_intinfer::{IntModel, UnitMode};
/// use qcn_serve::{IntEngine, ServeEngine};
///
/// let model = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
/// let config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
/// let packed = pack_model(&model, &config);
/// let int_model = IntModel::load(&model.descriptor(), &packed).unwrap();
/// let engine = IntEngine::new(int_model, 5, UnitMode::FloatExact, [1, 16, 16]);
/// assert_eq!(engine.kind(), "integer");
/// ```
pub struct IntEngine {
    model: IntModel,
    in_frac: u8,
    mode: UnitMode,
    input_dims: Vec<usize>,
    output_dims: Vec<usize>,
}

impl IntEngine {
    /// Wraps a loaded integer model. Inputs must sit on the `2^-in_frac`
    /// deployment grid; `mode` selects float-exact or pure-integer units;
    /// `input_dims` is the per-sample `[c, h, w]` geometry.
    pub fn new(model: IntModel, in_frac: u8, mode: UnitMode, input_dims: [usize; 3]) -> Self {
        let output_dims = probe_output_dims(&input_dims, |x| model.infer(x, in_frac, mode));
        IntEngine {
            model,
            in_frac,
            mode,
            input_dims: input_dims.to_vec(),
            output_dims,
        }
    }

    /// The input grid's fractional width.
    pub fn in_frac(&self) -> u8 {
        self.in_frac
    }

    /// The nonlinear-unit execution mode.
    pub fn mode(&self) -> UnitMode {
        self.mode
    }
}

impl ServeEngine for IntEngine {
    fn kind(&self) -> &str {
        "integer"
    }

    fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    fn output_dims(&self) -> &[usize] {
        &self.output_dims
    }

    fn input_grid(&self) -> Option<u8> {
        Some(self.in_frac)
    }

    fn infer_batch(&self, x: &Tensor) -> Tensor {
        self.model.infer(x, self.in_frac, self.mode)
    }
}
