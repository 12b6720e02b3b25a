//! # qcn-repro
//!
//! Top-level facade of the Q-CapsNets reproduction (Marchisio et al.,
//! DAC 2020). Re-exports every workspace crate under one roof so the
//! runnable examples and the cross-crate integration tests have a single
//! dependency. See the repository README for the crate map and
//! EXPERIMENTS.md for the paper-versus-measured results.
//!
//! # Examples
//!
//! ```
//! use qcn_repro::datasets::SynthKind;
//! use qcn_repro::capsnet::{ShallowCaps, ShallowCapsConfig};
//!
//! let model = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
//! let test = SynthKind::Mnist.generate(10, 0);
//! assert_eq!(test.num_classes(), 10);
//! assert_eq!(model.descriptor().image_side, 16);
//! ```

#![warn(missing_docs)]

pub use qcapsnets as framework;
pub use qcn_autograd as autograd;
pub use qcn_bench as bench;
pub use qcn_capsnet as capsnet;
pub use qcn_chaos as chaos;
pub use qcn_datasets as datasets;
pub use qcn_fixed as fixed;
pub use qcn_hwmodel as hwmodel;
pub use qcn_intinfer as intinfer;
pub use qcn_router as router;
pub use qcn_serve as serve;
pub use qcn_telemetry as telemetry;
pub use qcn_tensor as tensor;
