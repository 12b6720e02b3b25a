//! The Q-CapsNets framework: Algorithm 1 of the paper, tying together the
//! uniform binary search (step 1), the Eq. 6 memory fulfillment (step 2),
//! layer-wise activation/weight quantization (steps 3A/3B) and the
//! dynamic-routing specialisation (step 4A).

use crate::algorithms::{binary_search_uniform, dr_quant, layerwise, ParamDomain};
use crate::memory::{
    activation_memory_bits, activation_memory_reduction, solve_eq6, weight_memory_bits,
    weight_memory_reduction,
};
use crate::{EvalStats, Evaluator, SearchAccel, StagedBackend};
use qcn_capsnet::ModelQuant;
use qcn_datasets::Dataset;
use qcn_fixed::RoundingScheme;
use std::fmt;

/// Inputs to one framework run (paper Fig. 4): the accuracy tolerance, the
/// weight-memory budget, and the rounding scheme to use.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkConfig {
    /// Tolerated relative accuracy loss (e.g. `0.002` for 0.2 %);
    /// `acc_target = acc_fp32 · (1 − acc_tol)`.
    pub acc_tol: f32,
    /// Maximum weight-storage budget in bits.
    pub memory_budget_bits: u64,
    /// Rounding scheme for every quantization in this run.
    pub scheme: RoundingScheme,
    /// Mini-batch size for accuracy evaluation.
    pub eval_batch: usize,
    /// Largest fractional width explored (wordlength = this + 1). The
    /// paper's `Q_init = 32`; 23 fractional bits is already bit-exact under
    /// f32 fake quantization.
    pub max_frac_bits: u8,
    /// Seed forwarded to stochastic rounding.
    pub seed: u64,
    /// Finite-sample slack, in evaluation samples: every accuracy
    /// threshold is relaxed by `granularity_slack / eval_set.len()`. With
    /// small evaluation sets a sub-sample tolerance (e.g. 0.2 % of 500
    /// samples) would otherwise demand bit-exact behaviour and push every
    /// search to maximum width; the paper's 10 000-sample test sets give
    /// it a built-in granularity of 0.01 % per sample. Default 1.0.
    pub granularity_slack: f32,
    /// Search-time acceleration settings (prefix reuse, early exit,
    /// parallel probes, cache bounds). All exact: the selected
    /// configurations and reported accuracies are bit-identical to
    /// [`SearchAccel::naive`] for every rounding scheme and thread count.
    pub accel: SearchAccel,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            acc_tol: 0.002,
            memory_budget_bits: u64::MAX,
            scheme: RoundingScheme::RoundToNearest,
            eval_batch: 50,
            max_frac_bits: 23,
            seed: 0,
            granularity_slack: 1.0,
            accel: SearchAccel::default(),
        }
    }
}

/// Which of the paper's three output classes a result belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResultKind {
    /// `model_satisfied`: meets both the accuracy and memory constraints.
    Satisfied,
    /// `model_memory`: meets the memory budget at the best achievable
    /// accuracy (Path B).
    Memory,
    /// `model_accuracy`: meets the accuracy target at the lowest achievable
    /// memory (Path B).
    Accuracy,
}

impl fmt::Display for ResultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResultKind::Satisfied => "model_satisfied",
            ResultKind::Memory => "model_memory",
            ResultKind::Accuracy => "model_accuracy",
        };
        f.write_str(s)
    }
}

/// One quantized model produced by the framework, with its metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantResult {
    /// Which output slot this result fills.
    pub kind: ResultKind,
    /// The per-group quantization recipe.
    pub config: ModelQuant,
    /// Test accuracy under `config` (fraction in `[0, 1]`).
    pub accuracy: f32,
    /// Weight memory in bits.
    pub weight_mem_bits: u64,
    /// Activation memory in bits (per sample).
    pub act_mem_bits: u64,
    /// Weight-memory reduction vs FP32.
    pub weight_mem_reduction: f32,
    /// Activation-memory reduction vs FP32.
    pub act_mem_reduction: f32,
}

/// The outcome of Algorithm 1: Path A yields a single satisfying model,
/// Path B the two sub-optimal fallbacks.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Path A: both constraints satisfied.
    Satisfied(QuantResult),
    /// Path B: no configuration satisfies both constraints.
    Fallback {
        /// Budget-respecting model with maximal accuracy.
        memory: QuantResult,
        /// Accuracy-respecting model with minimal memory.
        accuracy: QuantResult,
    },
}

impl Outcome {
    /// Returns `true` for Path A results.
    pub fn is_satisfied(&self) -> bool {
        matches!(self, Outcome::Satisfied(_))
    }

    /// All results carried by this outcome.
    pub fn results(&self) -> Vec<&QuantResult> {
        match self {
            Outcome::Satisfied(r) => vec![r],
            Outcome::Fallback { memory, accuracy } => vec![memory, accuracy],
        }
    }
}

/// A full framework report: the outcome plus run-level metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Full-precision reference accuracy.
    pub acc_fp32: f32,
    /// The derived accuracy target `acc_fp32 · (1 − acc_tol)`.
    pub acc_target: f32,
    /// Step-1 uniform fractional width for weights and activations.
    pub step1_frac: u8,
    /// Evaluator work/savings counters: memo hits, prefix reuse, early
    /// exits, evictions (see [`EvalStats`]).
    pub stats: EvalStats,
    /// The outcome (Path A or Path B results).
    pub outcome: Outcome,
}

/// Runs the Q-CapsNets framework (paper Algorithm 1) on a trained model.
///
/// `eval_set` drives every accuracy test (the paper uses the test set), on
/// the datapath of `backend`: a [`qcn_capsnet::CapsNet`] scores on the
/// fake-quant reference, `qcn-intinfer`'s `IntBackend` on the integer
/// engine.
///
/// # Panics
///
/// Panics when `eval_set` is empty or `config` is inconsistent (zero batch,
/// `acc_tol` outside `[0, 1)`).
pub fn run<B: StagedBackend>(
    backend: &B,
    eval_set: &Dataset,
    config: &FrameworkConfig,
) -> RunReport {
    assert!(
        (0.0..1.0).contains(&config.acc_tol),
        "accuracy tolerance must be in [0, 1)"
    );
    let groups = backend.quant_groups();
    let n = groups.len();
    let mut eval = Evaluator::with_accel(backend, eval_set, config.eval_batch, config.accel);
    let fp = base_config(n, config);
    // Full-precision reference and targets (Algorithm 1, lines 3-6).
    let acc_fp32 = eval.accuracy(&fp);
    let slack = config.granularity_slack / eval_set.len() as f32;
    let acc_target = acc_fp32 * (1.0 - config.acc_tol) - slack;
    let acc_step1 = acc_fp32 * (1.0 - config.acc_tol * 0.05) - slack;

    // Step 1: layer-uniform quantization of weights + activations.
    let (step1_config, step1_frac) = binary_search_uniform(
        &mut eval,
        &fp,
        ParamDomain::Both,
        config.max_frac_bits,
        acc_step1,
    );

    // Step 2: memory-budget fulfillment via Eq. 6. The equation is solved
    // from the budget alone (as in the paper); each layer then stores
    // min(Eq. 6 width, step-1 width) — storing more bits than step 1 found
    // lossless would waste budget without gaining accuracy, and taking the
    // minimum can only lower the cost, so the budget stays satisfied.
    let wordlengths = solve_eq6(&groups, config.memory_budget_bits, config.max_frac_bits + 1)
        .unwrap_or_else(|| vec![1; n]);
    let mut memory_config = step1_config.clone();
    for (l, &wl) in wordlengths.iter().enumerate() {
        memory_config.layers[l].weight_frac = Some((wl - 1).min(step1_frac));
    }
    let acc_mm = eval.accuracy(&memory_config);

    let outcome = if acc_mm > acc_target {
        // Path A — steps 3A and 4A.
        let acc_min_3a = acc_target + 0.5 * (acc_mm - acc_target);
        let after_acts = layerwise(
            &mut eval,
            &memory_config,
            ParamDomain::Activations,
            acc_min_3a,
        );
        let satisfied = dr_quant(&mut eval, &after_acts, acc_target);
        let acc = eval.accuracy(&satisfied);
        Outcome::Satisfied(make_result(ResultKind::Satisfied, satisfied, acc, &groups))
    } else {
        // Path B — step 3B: uniform then layer-wise weight quantization
        // from the step-1 outcome, honouring only the accuracy target.
        let (uniform_w, _) = binary_search_uniform(
            &mut eval,
            &step1_config,
            ParamDomain::Weights,
            config.max_frac_bits,
            acc_target,
        );
        let accuracy_config = layerwise(&mut eval, &uniform_w, ParamDomain::Weights, acc_target);
        let acc_accuracy = eval.accuracy(&accuracy_config);
        Outcome::Fallback {
            memory: make_result(ResultKind::Memory, memory_config, acc_mm, &groups),
            accuracy: make_result(ResultKind::Accuracy, accuracy_config, acc_accuracy, &groups),
        }
    };

    RunReport {
        acc_fp32,
        acc_target,
        step1_frac,
        stats: eval.stats(),
        outcome,
    }
}

fn base_config(n: usize, config: &FrameworkConfig) -> ModelQuant {
    ModelQuant {
        layers: vec![qcn_capsnet::LayerQuant::full_precision(); n],
        scheme: config.scheme,
        seed: config.seed,
    }
}

fn make_result(
    kind: ResultKind,
    config: ModelQuant,
    accuracy: f32,
    groups: &[qcn_capsnet::GroupInfo],
) -> QuantResult {
    QuantResult {
        kind,
        accuracy,
        weight_mem_bits: weight_memory_bits(groups, &config),
        act_mem_bits: activation_memory_bits(groups, &config),
        weight_mem_reduction: weight_memory_reduction(groups, &config),
        act_mem_reduction: activation_memory_reduction(groups, &config),
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcn_capsnet::{train, CapsNet, ShallowCaps, ShallowCapsConfig, TrainConfig};
    use qcn_datasets::augment::AugmentPolicy;
    use qcn_datasets::SynthKind;
    use std::sync::OnceLock;

    /// A lightly trained tiny model (cached per test binary): accuracy is
    /// well above chance and stable under mild quantization, so both
    /// framework paths are reachable.
    fn setup() -> (&'static ShallowCaps, &'static Dataset) {
        static CELL: OnceLock<(ShallowCaps, Dataset)> = OnceLock::new();
        let (model, ds) = CELL.get_or_init(|| {
            let config = ShallowCapsConfig {
                conv_channels: 8,
                primary_types: 4,
                digit_dim: 6,
                ..ShallowCapsConfig::small(1)
            };
            let mut model = ShallowCaps::new(config, 5);
            let (train_set, test_set) = SynthKind::Mnist.train_test(200, 60, 5);
            train(
                &mut model,
                &train_set,
                &test_set,
                &TrainConfig {
                    epochs: 3,
                    batch_size: 25,
                    lr: 0.003,
                    augment: AugmentPolicy::none(),
                    ..TrainConfig::default()
                },
            );
            (model, test_set)
        });
        (model, ds)
    }

    #[test]
    fn generous_budget_takes_path_a() {
        let (model, ds) = setup();
        let report = run(
            model,
            ds,
            &FrameworkConfig {
                acc_tol: 0.9, // very tolerant: any quantization passes
                memory_budget_bits: u64::MAX,
                ..FrameworkConfig::default()
            },
        );
        assert!(report.outcome.is_satisfied());
        let r = report.outcome.results()[0].clone();
        assert_eq!(r.kind, ResultKind::Satisfied);
        assert!(r.weight_mem_reduction >= 1.0);
        // DR bits must be set for the routing group.
        assert!(r.config.layers[2].dr_frac.is_some());
    }

    #[test]
    fn impossible_budget_takes_path_b() {
        let (model, ds) = setup();
        let total_weights: u64 = model.groups().iter().map(|g| g.weight_count as u64).sum();
        let report = run(
            model,
            ds,
            &FrameworkConfig {
                acc_tol: 0.0005, // essentially no loss allowed
                // 2 bits/weight on average: guaranteed accuracy collapse.
                memory_budget_bits: total_weights * 2,
                ..FrameworkConfig::default()
            },
        );
        // With an untrained model Path A is still possible if chance
        // accuracy survives; accept either but verify the invariants of
        // whatever path ran.
        match &report.outcome {
            Outcome::Satisfied(r) => {
                assert!(r.weight_mem_bits <= total_weights * 2);
            }
            Outcome::Fallback { memory, accuracy } => {
                assert_eq!(memory.kind, ResultKind::Memory);
                assert_eq!(accuracy.kind, ResultKind::Accuracy);
                assert!(memory.weight_mem_bits <= total_weights * 2);
                // The accuracy model should be at least as accurate as the
                // memory model on the eval set.
                assert!(accuracy.accuracy >= memory.accuracy);
            }
        }
    }

    #[test]
    fn satisfied_model_respects_budget() {
        let (model, ds) = setup();
        let total_weights: u64 = model.groups().iter().map(|g| g.weight_count as u64).sum();
        let budget = total_weights * 8;
        let report = run(
            model,
            ds,
            &FrameworkConfig {
                acc_tol: 0.9,
                memory_budget_bits: budget,
                ..FrameworkConfig::default()
            },
        );
        assert!(report.outcome.is_satisfied());
        let r = report.outcome.results()[0];
        assert!(
            r.weight_mem_bits <= budget,
            "weight memory {} exceeds budget {budget}",
            r.weight_mem_bits
        );
    }

    #[test]
    fn report_metadata_is_populated() {
        let (model, ds) = setup();
        let report = run(
            model,
            ds,
            &FrameworkConfig {
                acc_tol: 0.5,
                ..FrameworkConfig::default()
            },
        );
        assert!((0.0..=1.0).contains(&report.acc_fp32));
        assert!(report.acc_target <= report.acc_fp32);
        assert!(report.stats.evaluations > 0);
    }

    #[test]
    fn eq6_wordlengths_decrease_toward_output() {
        let (model, ds) = setup();
        let total_weights: u64 = model.groups().iter().map(|g| g.weight_count as u64).sum();
        let report = run(
            model,
            ds,
            &FrameworkConfig {
                acc_tol: 0.9,
                memory_budget_bits: total_weights * 6,
                ..FrameworkConfig::default()
            },
        );
        let r = report.outcome.results()[0].clone();
        let w: Vec<u8> = r
            .config
            .layers
            .iter()
            .map(|l| l.weight_frac.expect("all weights quantized"))
            .collect();
        assert!(w[0] >= w[1] && w[1] >= w[2], "{w:?}");
    }
}
