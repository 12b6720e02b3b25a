//! # qcn-capsnet
//!
//! Capsule Network models and training stack for the Q-CapsNets
//! reproduction (Marchisio et al., DAC 2020): the layer zoo (conv stem,
//! PrimaryCaps, dynamically routed capsule layers, DeepCaps ConvCaps),
//! one model type ([`CapsModel`]) built from a structural
//! [`descriptor::ModelDesc`] — the ShallowCaps and DeepCaps architectures
//! are configs that turn into one — the margin loss, Adam, a training
//! loop, and — crucially for the paper — *quantized inference*
//! with per-layer `Qw`/`Qa`/`Q_DR` hooks at the exact rounding points of
//! paper Fig. 9.
//!
//! # Examples
//!
//! ```no_run
//! use qcn_capsnet::{accuracy, train, CapsNet, ModelQuant, ShallowCaps,
//!                   ShallowCapsConfig, TrainConfig};
//! use qcn_datasets::SynthKind;
//!
//! let (train_set, test_set) = SynthKind::Mnist.train_test(2000, 500, 42);
//! let mut model = ShallowCaps::new(ShallowCapsConfig::small(1), 42);
//! let report = train(&mut model, &train_set, &test_set, &TrainConfig::default());
//! println!("fp32 accuracy: {:.2}%", report.final_accuracy * 100.0);
//!
//! // Quantize weights + activations to 8 fractional bits and re-evaluate.
//! let config = ModelQuant::uniform(3, 8, qcn_fixed::RoundingScheme::RoundToNearest);
//! let qmodel = model.with_quantized_weights(&config);
//! let qacc = accuracy(&qmodel, &test_set, &config, 50);
//! println!("8-bit accuracy: {:.2}%", qacc * 100.0);
//! ```

#![warn(missing_docs)]

mod decoder;
pub mod descriptor;
pub mod layers;
mod loss;
mod metrics;
mod model;
mod models;
mod optim;
mod quant;
mod train;

pub use decoder::Decoder;
pub use loss::MarginLoss;
pub use metrics::{confusion_matrix, ConfusionMatrix};
#[doc(hidden)]
pub use model::stage_span;
pub use model::{accuracy, argmax_caps, CapsNet, GroupInfo};
pub use models::{
    BlockConfig, CapsModel, DeepCaps, DeepCapsConfig, ShallowCaps, ShallowCapsConfig,
};
pub use optim::Adam;
pub use quant::{LayerQuant, ModelQuant, QuantCtx};
pub use train::{train, train_step, train_step_with_reconstruction, TrainConfig, TrainReport};
