//! # qcn-fixed
//!
//! Fixed-point arithmetic substrate for the Q-CapsNets reproduction
//! (Marchisio et al., DAC 2020, §II-B): the Q⟨QI.QF⟩ [`QFormat`], the three
//! [`RoundingScheme`]s the paper searches over (truncation,
//! round-to-nearest, stochastic), tensor-level fake quantization
//! ([`Quantizer`]) and a true integer fixed-point scalar ([`Fx`]) used to
//! validate the fake-quantization path against real hardware arithmetic.
//!
//! # Examples
//!
//! ```
//! use qcn_fixed::{QFormat, Quantizer, RoundingScheme};
//! use qcn_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Quantize activations to Q1.5 with stochastic rounding, as the
//! // Q-CapsNets dynamic-routing step does.
//! let quant = Quantizer::new(QFormat::with_frac(5), RoundingScheme::Stochastic);
//! let mut rng = StdRng::seed_from_u64(42);
//! let acts = Tensor::rand_uniform([8], -1.0, 1.0, &mut rng);
//! let q = quant.quantize(&acts, &mut rng);
//! assert!(q.data().iter().all(|&v| quant.format().is_representable(v)));
//! ```

#![warn(missing_docs)]

mod format;
mod fx;
mod quantize;
mod requant;
mod rounding;
mod units;

pub use format::QFormat;
pub use fx::Fx;
pub use quantize::{FusedQuant, QuantizationStats, Quantizer};
pub use requant::{requant_raw, requant_slice_with};
pub use rounding::{sr_key, sr_uniform, RoundingScheme};
pub use units::{fx_softmax, fx_squash, int_softmax, int_squash};
