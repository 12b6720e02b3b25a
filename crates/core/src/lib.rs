//! # qcapsnets
//!
//! A Rust reproduction of **"Q-CapsNets: A Specialized Framework for
//! Quantizing Capsule Networks"** (Marchisio, Bussolino, Colucci, Martina,
//! Masera, Shafique — DAC 2020).
//!
//! Given a trained Capsule Network, an accuracy tolerance and a
//! weight-memory budget, the framework searches layer-wise fixed-point
//! wordlengths for weights, activations and — specially — the
//! dynamic-routing intermediates, under a library of rounding schemes:
//!
//! 1. **Step 1** — layer-uniform binary search over `Qw = Qa`
//!    ([`algorithms::binary_search_uniform`]);
//! 2. **Step 2** — memory-budget fulfillment with decreasing per-layer
//!    wordlengths, paper Eq. 6 ([`memory::solve_eq6`]);
//! 3. **Steps 3A/3B** — layer-wise descent on activations or weights,
//!    paper Algorithm 2 ([`algorithms::layerwise`]);
//! 4. **Step 4A** — dynamic-routing specialisation, paper Algorithm 3
//!    ([`algorithms::dr_quant`]);
//! 5. **§III-B** — rounding-scheme selection across the library
//!    ([`run_library`]).
//!
//! Every accuracy test goes through one [`Evaluator`], generic over the
//! [`StagedBackend`] whose datapath it scores on: any `CapsNet` (the
//! fake-quant reference), or `qcn-intinfer`'s integer engine.
//!
//! # Examples
//!
//! ```no_run
//! use qcapsnets::{run_library, FrameworkConfig};
//! use qcn_capsnet::{train, ShallowCaps, ShallowCapsConfig, TrainConfig};
//! use qcn_datasets::SynthKind;
//! use qcn_fixed::RoundingScheme;
//!
//! let (train_set, test_set) = SynthKind::Mnist.train_test(2000, 500, 42);
//! let mut model = ShallowCaps::new(ShallowCapsConfig::small(1), 42);
//! train(&mut model, &train_set, &test_set, &TrainConfig::default());
//!
//! let config = FrameworkConfig {
//!     acc_tol: 0.002,                       // 0.2 % tolerated loss
//!     memory_budget_bits: 500_000,          // weight budget
//!     ..FrameworkConfig::default()
//! };
//! let report = run_library(&model, &test_set, &config, &RoundingScheme::ALL);
//! println!("{:?}", report.selection);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod baselines;
mod evaluator;
pub mod export;
mod finetune;
mod framework;
pub mod memory;
pub mod report;
mod selection;

pub use evaluator::{ConfigScorer, EvalStats, Evaluator, SearchAccel, StagedBackend};
pub use finetune::{finetune, finetune_step, FinetuneConfig};
pub use framework::{run, FrameworkConfig, Outcome, QuantResult, ResultKind, RunReport};
pub use selection::{run_library, select, LibraryReport, Selection};
