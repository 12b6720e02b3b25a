//! # qcn-intinfer — true integer fixed-point inference for Q-CapsNets
//!
//! Everywhere else in the workspace, quantization is *simulated*: tensors
//! stay `f32` and rounding snaps them onto fixed-point grids (fake
//! quantization). This crate executes the real thing — it loads a
//! [`qcapsnets::export::PackedModel`] (the deployment wordlength blob) and
//! runs the complete ShallowCaps / DeepCaps forward pass on raw integers:
//!
//! * **Linear kernels** ([convolution and capsule votes](crate::IntModel))
//!   multiply raw fixed-point words into exact `i64` accumulators at
//!   `x.frac + w.frac` fractional bits.
//! * **Requantization** between layers is the shift-based
//!   [`qcn_fixed::requant_raw`] under the model's rounding scheme
//!   (TRN/RTN/RTNE/SR), applied through writeback epilogues that key every
//!   stochastic draw by element position — so results are bit-identical
//!   across thread counts, exactly like the f32 reference.
//! * **Nonlinear units** (squash, routing softmax) run in one of two
//!   [`UnitMode`]s: `FloatExact` replays the reference's f32 unit
//!   implementations on (exactly) dequantized operands, making the whole
//!   engine **bit-identical to fake-quant inference**; `Integer` uses the
//!   pure integer units of [`qcn_fixed`] (integer square root, Q-format
//!   exponential) so no float arithmetic executes anywhere.
//!
//! The bit-exactness of `FloatExact` mode is not luck: every linear
//! accumulator in the supported configurations stays inside f32's 24-bit
//! exact window, where f32 addition of grid values is exact, and
//! [`qcn_fixed::requant_raw`] is proven (by exhaustive test) bit-identical
//! to the f32 rounding for representable values. The equivalence suite in
//! `tests/integer_inference_equivalence.rs` verifies end-to-end logit
//! equality over all rounding schemes and thread counts.
//!
//! [`IntEvaluator`] plugs the engine into the framework's
//! [`qcapsnets::ConfigScorer`] interface, so the Q-CapsNets search can
//! score candidate configurations on the deployment datapath itself.

#![warn(missing_docs)]

pub mod epilogue;
mod evaluator;
pub mod kernels;
mod model;
mod routing;
pub mod tensor;
mod units;

pub use evaluator::IntEvaluator;
pub use model::{IntModel, LoadError};
pub use tensor::{f32_to_raw, flatten_caps_raw, on_grid, raw_to_f32, IntTensor};
pub use units::UnitMode;
