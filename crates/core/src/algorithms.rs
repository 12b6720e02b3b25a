//! The framework's search primitives: binary search over uniform
//! wordlengths (Algorithm 1, step 1), layer-wise quantization (Algorithm 2)
//! and dynamic-routing quantization (Algorithm 3).

use crate::ConfigScorer;
use qcn_capsnet::ModelQuant;

/// Which parameter domain a search step adjusts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamDomain {
    /// Stored weights only (`Qw`).
    Weights,
    /// Activations only (`Qa`).
    Activations,
    /// Weights and activations together (step 1's uniform search).
    Both,
}

/// Overwrites `config`'s fractional bits in `domain` for group `l`.
fn set_frac(config: &mut ModelQuant, domain: ParamDomain, l: usize, frac: u8) {
    match domain {
        ParamDomain::Weights => config.layers[l].weight_frac = Some(frac),
        ParamDomain::Activations => config.layers[l].act_frac = Some(frac),
        ParamDomain::Both => {
            config.layers[l].weight_frac = Some(frac);
            config.layers[l].act_frac = Some(frac);
        }
    }
}

fn get_frac(config: &ModelQuant, domain: ParamDomain, l: usize) -> Option<u8> {
    match domain {
        ParamDomain::Weights => config.layers[l].weight_frac,
        ParamDomain::Activations | ParamDomain::Both => config.layers[l].act_frac,
    }
}

/// Binary search for the smallest *uniform* fractional width in `domain`
/// keeping accuracy at or above `acc_min` (paper Algorithm 1, step 1, and
/// the uniform part of step 3B).
///
/// Starts from `base` (whose other fields are preserved) and searches
/// `frac ∈ [0, max_frac]` under the monotonicity assumption that more bits
/// never hurt accuracy. Returns the chosen configuration and its fractional
/// width; when even `max_frac` bits miss `acc_min`, returns the `max_frac`
/// configuration (the caller inspects the resulting accuracy).
pub fn binary_search_uniform<S: ConfigScorer>(
    eval: &mut S,
    base: &ModelQuant,
    domain: ParamDomain,
    max_frac: u8,
    acc_min: f32,
) -> (ModelQuant, u8) {
    let with_frac = |frac: u8| {
        let mut c = base.clone();
        for l in 0..c.layers.len() {
            set_frac(&mut c, domain, l, frac);
        }
        c
    };
    let (mut lo, mut hi) = (0u8, max_frac);
    if !eval.meets(&with_frac(hi), acc_min) {
        return (with_frac(hi), hi);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if eval.meets(&with_frac(mid), acc_min) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // Invariant: the returned `hi` is always a width that was probed above
    // (the initial `max_frac` test, or a passing `mid`), so its accuracy is
    // already memoized — callers reading it back pay no re-evaluation.
    (with_frac(hi), hi)
}

/// Layer-wise quantization (paper Algorithm 2).
///
/// Starting from `config`, repeatedly lowers the fractional width of the
/// suffix of layers `[start, L)` in lock-step until accuracy drops below
/// `acc_min`, backs off one bit, freezes the suffix head, and repeats with
/// the next suffix. The first layer (index 0) is never touched, matching
/// the paper ("each layer except the first one").
///
/// Returns the refined configuration.
///
/// # Panics
///
/// Panics when `config` quantizes nothing in `domain` (layer-wise descent
/// needs a starting width).
pub fn layerwise<S: ConfigScorer>(
    eval: &mut S,
    config: &ModelQuant,
    domain: ParamDomain,
    acc_min: f32,
) -> ModelQuant {
    let layers = config.layers.len();
    let mut current = config.clone();
    for l in 0..layers {
        assert!(
            get_frac(&current, domain, l).is_some(),
            "layer {l} has no initial width in {domain:?}"
        );
    }
    for start in 1..layers {
        'descend: loop {
            // Tentatively lower every layer in [start, L) by one bit —
            // speculatively generating up to `probe_width` successive
            // decrements so independent candidates can be probed at once.
            // Scanning the verdicts in order and stopping at the first
            // failure selects exactly the config the one-at-a-time descent
            // would.
            let width = eval.probe_width().max(1);
            let mut candidates = Vec::with_capacity(width);
            let mut tip = current.clone();
            'generate: for _ in 0..width {
                let mut next = tip.clone();
                for l in start..layers {
                    let frac = get_frac(&next, domain, l).expect("checked above");
                    if frac == 0 {
                        break 'generate;
                    }
                    set_frac(&mut next, domain, l, frac - 1);
                }
                candidates.push(next.clone());
                tip = next;
            }
            let hit_floor = candidates.len() < width;
            if candidates.is_empty() {
                break;
            }
            let verdicts = eval.meets_batch(&candidates, acc_min);
            for (candidate, ok) in candidates.iter().zip(&verdicts) {
                if *ok {
                    current = candidate.clone();
                } else {
                    break 'descend;
                }
            }
            if hit_floor {
                break;
            }
        }
    }
    current
}

/// Dynamic-routing quantization (paper Algorithm 3 / step 4A).
///
/// For every group flagged `has_routing`, lowers `Q_DR` one bit at a time
/// — starting from the group's activation width — until accuracy falls
/// below `acc_min`, then backs off one bit. Earlier groups' results stay in
/// effect while later groups are searched, as in the paper's sequential
/// loop.
///
/// Returns the refined configuration.
pub fn dr_quant<S: ConfigScorer>(eval: &mut S, config: &ModelQuant, acc_min: f32) -> ModelQuant {
    let mut current = config.clone();
    let routing_groups: Vec<usize> = eval
        .groups()
        .iter()
        .enumerate()
        .filter(|(_, g)| g.has_routing)
        .map(|(i, _)| i)
        .collect();
    for l in routing_groups {
        let Some(start) = current.layers[l].effective_dr_frac() else {
            continue; // full-precision group: nothing to specialise
        };
        let mut frac = start;
        'descend: while frac > 0 {
            // Speculate up to `probe_width` successive single-bit drops;
            // scanning verdicts in order keeps the selection identical to
            // the one-at-a-time loop.
            let width = eval.probe_width().max(1).min(frac as usize);
            let candidates: Vec<ModelQuant> = (1..=width as u8)
                .map(|k| {
                    let mut candidate = current.clone();
                    candidate.layers[l].dr_frac = Some(frac - k);
                    candidate
                })
                .collect();
            let verdicts = eval.meets_batch(&candidates, acc_min);
            for (candidate, ok) in candidates.iter().zip(&verdicts) {
                if *ok {
                    frac -= 1;
                    current = candidate.clone();
                } else {
                    break 'descend;
                }
            }
        }
        current.layers[l].dr_frac = Some(frac);
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use qcn_capsnet::{ShallowCaps, ShallowCapsConfig};
    use qcn_datasets::SynthKind;
    use qcn_fixed::RoundingScheme;

    fn setup() -> (ShallowCaps, qcn_datasets::Dataset) {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 3);
        let ds = SynthKind::Mnist.generate(30, 3);
        (model, ds)
    }

    #[test]
    fn binary_search_returns_zero_for_trivial_target() {
        let (model, ds) = setup();
        let mut eval = Evaluator::new(&model, &ds, 15);
        let base = ModelQuant::full_precision(3);
        // acc_min = 0 is satisfied by any width → minimal width 0.
        let (config, frac) = binary_search_uniform(&mut eval, &base, ParamDomain::Both, 16, 0.0);
        assert_eq!(frac, 0);
        assert!(config.layers.iter().all(|l| l.weight_frac == Some(0)));
    }

    #[test]
    fn binary_search_returns_max_when_unreachable() {
        let (model, ds) = setup();
        let mut eval = Evaluator::new(&model, &ds, 15);
        let base = ModelQuant::full_precision(3);
        // An untrained model cannot reach 100% accuracy at any width.
        let (_, frac) = binary_search_uniform(&mut eval, &base, ParamDomain::Both, 16, 1.01);
        assert_eq!(frac, 16);
    }

    #[test]
    fn binary_search_uses_logarithmic_evaluations() {
        let (model, ds) = setup();
        let mut eval = Evaluator::new(&model, &ds, 15);
        let base = ModelQuant::full_precision(3);
        binary_search_uniform(&mut eval, &base, ParamDomain::Both, 31, 0.0);
        assert!(
            eval.stats().evaluations <= 7,
            "expected ≈ log₂(32) evals, got {}",
            eval.stats().evaluations
        );
    }

    #[test]
    fn binary_search_endpoint_accuracy_comes_from_memo() {
        let (model, ds) = setup();
        let base = ModelQuant::full_precision(3);
        // Reachable target: the endpoint is the last passing mid-probe.
        let mut eval = Evaluator::new(&model, &ds, 15);
        let (config, _) = binary_search_uniform(&mut eval, &base, ParamDomain::Both, 16, 0.0);
        let evals = eval.stats().evaluations;
        let _ = eval.accuracy(&config);
        assert_eq!(
            eval.stats().evaluations,
            evals,
            "endpoint accuracy must come from the memo, not a re-run"
        );
        // Unreachable target: the endpoint is the initial max-width probe.
        let mut eval = Evaluator::new(&model, &ds, 15);
        let (config, frac) = binary_search_uniform(&mut eval, &base, ParamDomain::Both, 16, 1.01);
        assert_eq!(frac, 16);
        let evals = eval.stats().evaluations;
        let _ = eval.accuracy(&config);
        assert_eq!(eval.stats().evaluations, evals);
    }

    #[test]
    fn layerwise_never_touches_first_layer() {
        let (model, ds) = setup();
        let mut eval = Evaluator::new(&model, &ds, 15);
        let start = ModelQuant::uniform(3, 8, RoundingScheme::Truncation);
        let refined = layerwise(&mut eval, &start, ParamDomain::Activations, 0.0);
        assert_eq!(refined.layers[0].act_frac, Some(8));
        // With acc_min = 0 the suffix should drop to the floor.
        assert_eq!(refined.layers[2].act_frac, Some(0));
    }

    #[test]
    fn layerwise_produces_monotone_suffix() {
        let (model, ds) = setup();
        let mut eval = Evaluator::new(&model, &ds, 15);
        let start = ModelQuant::uniform(3, 8, RoundingScheme::Truncation);
        // A mild target: keep whatever the untrained model scores at 8 bits.
        let base_acc = eval.accuracy(&start);
        let refined = layerwise(&mut eval, &start, ParamDomain::Weights, base_acc);
        // Widths must be non-increasing from layer 1 onward.
        let w: Vec<u8> = refined
            .layers
            .iter()
            .map(|l| l.weight_frac.unwrap())
            .collect();
        assert!(w[1] >= w[2], "suffix widths must be monotone: {w:?}");
        // And the result must still meet the target.
        assert!(eval.accuracy(&refined) >= base_acc);
    }

    #[test]
    fn dr_quant_only_touches_routing_groups() {
        let (model, ds) = setup();
        let mut eval = Evaluator::new(&model, &ds, 15);
        let start = ModelQuant::uniform(3, 6, RoundingScheme::Truncation);
        let refined = dr_quant(&mut eval, &start, 0.0);
        // ShallowCaps: only L3 routes.
        assert_eq!(refined.layers[0].dr_frac, None);
        assert_eq!(refined.layers[1].dr_frac, None);
        assert_eq!(refined.layers[2].dr_frac, Some(0)); // acc_min 0 → floor
    }

    #[test]
    fn dr_quant_respects_accuracy_floor() {
        let (model, ds) = setup();
        let mut eval = Evaluator::new(&model, &ds, 15);
        let start = ModelQuant::uniform(3, 6, RoundingScheme::Truncation);
        let acc6 = eval.accuracy(&start);
        let refined = dr_quant(&mut eval, &start, acc6);
        assert!(eval.accuracy(&refined) >= acc6);
        let dr = refined.layers[2].dr_frac.unwrap();
        assert!(dr <= 6);
    }
}
