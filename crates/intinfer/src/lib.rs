//! # qcn-intinfer — true integer fixed-point inference for Q-CapsNets
//!
//! Everywhere else in the workspace, quantization is *simulated*: tensors
//! stay `f32` and rounding snaps them onto fixed-point grids (fake
//! quantization). This crate executes the real thing — it loads a
//! [`qcapsnets::export::PackedModel`] (the deployment wordlength blob) and
//! runs the complete ShallowCaps / DeepCaps forward pass on raw integers:
//!
//! * **Linear kernels** ([convolution and capsule votes](crate::kernels))
//!   multiply raw fixed-point words into exact accumulators at `x.frac +
//!   w.frac` fractional bits, on `qcn_tensor`'s blocked GEMM. The
//!   accumulator width is proved per kernel at [`IntModel::load`]
//!   ([`IntModel::accumulator_widths`]): `i16 × i16 → i32` when every
//!   operand fits 16 bits and the worst-case sum fits `i32`, else `i64`.
//!   The first layer reads the unclamped model input, so its width is
//!   proved per batch from the observed range.
//! * **Dynamic routing** ([`routing`]) runs on fixed-width lanes of `i32`
//!   words when `max(ti, dd)·2^(2·Q_DR)` fits `i32`, else of `i64` words
//!   ([`IntModel::routing_widths`]); one generic kernel serves both.
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
//! The bit-exactness of `FloatExact` mode rests on two facts. Integer
//! sums are exact at any proved width. The f32 reference is exact only
//! while its sums stay inside f32's 24-bit significand: f32 addition of
//! grid values is exact there, and [`qcn_fixed::requant_raw`] is proven
//! (by exhaustive test) bit-identical to the f32 rounding for
//! representable values. Narrow configurations stay inside that window;
//! uniform widths of 14 bits and more leave it, and there the two engines
//! have been seen to differ (by up to 3.1e-3), with the reference the one
//! that rounds. The end-to-end suites check identity over all rounding
//! schemes and thread counts on uniform Q1.5 with `Q_DR` 4
//! (`tests/integer_inference_equivalence.rs`), and on random routing
//! geometries at `Q_DR` 2–8 (`tests/routing_geometry.rs`); no wider domain
//! is tested.
//!
//! [`IntBackend`] plugs the engine into the framework's
//! [`qcapsnets::StagedBackend`] interface: passed to [`qcapsnets::run`],
//! the Q-CapsNets search scores candidate configurations on the deployment
//! datapath itself, through the same [`qcapsnets::Evaluator`] (memo, prefix
//! reuse, early exit) as the fake-quant reference. A configuration the
//! engine cannot load falls back whole to the reference.

#![warn(missing_docs)]

mod backend;
pub mod epilogue;
pub mod kernels;
mod model;
pub mod routing;
pub mod tensor;
mod units;

pub use backend::{IntBackend, IntPrepared};
pub use model::{IntModel, LoadError};
pub use tensor::{f32_to_raw, flatten_caps_raw, on_grid, raw_to_f32, snap_to_grid, IntTensor};
pub use units::UnitMode;
