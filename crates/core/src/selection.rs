//! Rounding-scheme selection (paper §III-B): run Algorithm 1 once per
//! scheme in the library, then pick the best result by the paper's
//! tie-breaking rules.

use crate::framework::{run, FrameworkConfig, Outcome, QuantResult, RunReport};
use crate::StagedBackend;
use qcn_datasets::Dataset;
use qcn_fixed::RoundingScheme;

/// The winner of a rounding-scheme library search.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// Some scheme reached Path A; the single best satisfying model wins.
    Satisfied {
        /// The winning scheme.
        scheme: RoundingScheme,
        /// Its satisfying model.
        result: QuantResult,
    },
    /// Every scheme fell to Path B: return the best model per slot
    /// (highest-accuracy `model_memory`, lowest-memory `model_accuracy`).
    Fallback {
        /// Scheme and model for the memory slot.
        memory: (RoundingScheme, QuantResult),
        /// Scheme and model for the accuracy slot.
        accuracy: (RoundingScheme, QuantResult),
    },
}

/// A library run: every scheme's full report plus the final selection.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryReport {
    /// Per-scheme reports, in the order the schemes were given.
    pub runs: Vec<(RoundingScheme, RunReport)>,
    /// The selected result(s).
    pub selection: Selection,
}

/// Runs the framework once per rounding scheme on `backend`'s datapath and
/// applies the selection rules of §III-B.
///
/// # Panics
///
/// Panics when `schemes` is empty, or on the same conditions as
/// [`run`].
pub fn run_library<B: StagedBackend>(
    backend: &B,
    eval_set: &Dataset,
    config: &FrameworkConfig,
    schemes: &[RoundingScheme],
) -> LibraryReport {
    assert!(!schemes.is_empty(), "empty rounding-scheme library");
    let runs: Vec<(RoundingScheme, RunReport)> = schemes
        .iter()
        .map(|&scheme| {
            let report = run(
                backend,
                eval_set,
                &FrameworkConfig {
                    scheme,
                    ..config.clone()
                },
            );
            (scheme, report)
        })
        .collect();
    let selection = select(&runs);
    LibraryReport { runs, selection }
}

/// Applies §III-B's criteria to a set of per-scheme reports.
///
/// Path A exists (criteria A1–A4): discard Path B, pick lowest weight
/// memory, then fewest activation-memory bits, then the simplest scheme.
/// Otherwise (criteria B1–B3): best-accuracy `model_memory` and
/// lowest-memory `model_accuracy`, ties to the simplest scheme.
///
/// # Panics
///
/// Panics when `runs` is empty.
pub fn select(runs: &[(RoundingScheme, RunReport)]) -> Selection {
    assert!(!runs.is_empty(), "no runs to select from");
    let satisfied: Vec<(RoundingScheme, &QuantResult)> = runs
        .iter()
        .filter_map(|(s, r)| match &r.outcome {
            Outcome::Satisfied(q) => Some((*s, q)),
            Outcome::Fallback { .. } => None,
        })
        .collect();
    if !satisfied.is_empty() {
        // A2–A4: (weight memory, activation memory, scheme complexity).
        let (scheme, result) = satisfied
            .into_iter()
            .min_by(|(sa, a), (sb, b)| {
                a.weight_mem_bits
                    .cmp(&b.weight_mem_bits)
                    .then(a.act_mem_bits.cmp(&b.act_mem_bits))
                    .then(sa.complexity().cmp(&sb.complexity()))
            })
            .expect("nonempty");
        return Selection::Satisfied {
            scheme,
            result: result.clone(),
        };
    }
    // B1: best-accuracy model_memory (ties → simplest scheme).
    let memory = runs
        .iter()
        .filter_map(|(s, r)| match &r.outcome {
            Outcome::Fallback { memory, .. } => Some((*s, memory)),
            _ => None,
        })
        .min_by(|(sa, a), (sb, b)| {
            b.accuracy
                .partial_cmp(&a.accuracy)
                .expect("accuracies are finite")
                .then(sa.complexity().cmp(&sb.complexity()))
        })
        .expect("path B runs exist");
    // B2: lowest-memory model_accuracy (ties → simplest scheme).
    let accuracy = runs
        .iter()
        .filter_map(|(s, r)| match &r.outcome {
            Outcome::Fallback { accuracy, .. } => Some((*s, accuracy)),
            _ => None,
        })
        .min_by(|(sa, a), (sb, b)| {
            a.weight_mem_bits
                .cmp(&b.weight_mem_bits)
                .then(sa.complexity().cmp(&sb.complexity()))
        })
        .expect("path B runs exist");
    Selection::Fallback {
        memory: (memory.0, memory.1.clone()),
        accuracy: (accuracy.0, accuracy.1.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::ResultKind;
    use qcn_capsnet::ModelQuant;

    fn result(kind: ResultKind, acc: f32, wbits: u64, abits: u64) -> QuantResult {
        QuantResult {
            kind,
            config: ModelQuant::full_precision(1),
            accuracy: acc,
            weight_mem_bits: wbits,
            act_mem_bits: abits,
            weight_mem_reduction: 1.0,
            act_mem_reduction: 1.0,
        }
    }

    fn report(outcome: Outcome) -> RunReport {
        RunReport {
            acc_fp32: 0.9,
            acc_target: 0.89,
            step1_frac: 8,
            stats: Default::default(),
            outcome,
        }
    }

    #[test]
    fn path_a_discards_path_b() {
        let runs = vec![
            (
                RoundingScheme::Truncation,
                report(Outcome::Fallback {
                    memory: result(ResultKind::Memory, 0.99, 10, 10),
                    accuracy: result(ResultKind::Accuracy, 0.99, 10, 10),
                }),
            ),
            (
                RoundingScheme::Stochastic,
                report(Outcome::Satisfied(result(
                    ResultKind::Satisfied,
                    0.9,
                    100,
                    100,
                ))),
            ),
        ];
        match select(&runs) {
            Selection::Satisfied { scheme, .. } => assert_eq!(scheme, RoundingScheme::Stochastic),
            other => panic!("expected Satisfied, got {other:?}"),
        }
    }

    #[test]
    fn path_a_prefers_lower_weight_memory() {
        let runs = vec![
            (
                RoundingScheme::Truncation,
                report(Outcome::Satisfied(result(
                    ResultKind::Satisfied,
                    0.9,
                    200,
                    10,
                ))),
            ),
            (
                RoundingScheme::Stochastic,
                report(Outcome::Satisfied(result(
                    ResultKind::Satisfied,
                    0.9,
                    100,
                    99,
                ))),
            ),
        ];
        match select(&runs) {
            Selection::Satisfied { scheme, result } => {
                assert_eq!(scheme, RoundingScheme::Stochastic);
                assert_eq!(result.weight_mem_bits, 100);
            }
            other => panic!("expected Satisfied, got {other:?}"),
        }
    }

    #[test]
    fn path_a_ties_break_by_act_bits_then_simplicity() {
        let runs = vec![
            (
                RoundingScheme::Stochastic,
                report(Outcome::Satisfied(result(
                    ResultKind::Satisfied,
                    0.9,
                    100,
                    50,
                ))),
            ),
            (
                RoundingScheme::RoundToNearest,
                report(Outcome::Satisfied(result(
                    ResultKind::Satisfied,
                    0.9,
                    100,
                    50,
                ))),
            ),
            (
                RoundingScheme::Truncation,
                report(Outcome::Satisfied(result(
                    ResultKind::Satisfied,
                    0.9,
                    100,
                    60,
                ))),
            ),
        ];
        match select(&runs) {
            // SR and RTN tie on both memories; RTN is simpler.
            Selection::Satisfied { scheme, .. } => {
                assert_eq!(scheme, RoundingScheme::RoundToNearest)
            }
            other => panic!("expected Satisfied, got {other:?}"),
        }
    }

    #[test]
    fn path_b_selects_per_slot() {
        let runs = vec![
            (
                RoundingScheme::Truncation,
                report(Outcome::Fallback {
                    memory: result(ResultKind::Memory, 0.5, 100, 10),
                    accuracy: result(ResultKind::Accuracy, 0.9, 400, 10),
                }),
            ),
            (
                RoundingScheme::Stochastic,
                report(Outcome::Fallback {
                    memory: result(ResultKind::Memory, 0.7, 100, 10),
                    accuracy: result(ResultKind::Accuracy, 0.9, 300, 10),
                }),
            ),
        ];
        match select(&runs) {
            Selection::Fallback { memory, accuracy } => {
                assert_eq!(memory.0, RoundingScheme::Stochastic); // higher acc
                assert_eq!(accuracy.0, RoundingScheme::Stochastic); // lower mem
            }
            other => panic!("expected Fallback, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "no runs")]
    fn select_rejects_empty() {
        select(&[]);
    }
}
