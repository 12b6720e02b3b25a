//! Exactness guarantees of the search-time acceleration layer: the staged
//! forward with prefix-activation reuse, the early-exit scorer and the
//! parallel candidate probes must be *bit-identical* to the naive
//! monolithic evaluation — for every rounding scheme in the library and
//! for every thread count, on the fake-quant and the integer backends.
//! Acceleration is allowed to change wall-clock time and evaluator work
//! counters, never results.

use qcn_repro::capsnet::{
    train, CapsNet, DeepCaps, DeepCapsConfig, LayerQuant, ModelQuant, ShallowCaps,
    ShallowCapsConfig, TrainConfig,
};
use qcn_repro::datasets::augment::AugmentPolicy;
use qcn_repro::datasets::{Dataset, SynthKind};
use qcn_repro::fixed::RoundingScheme;
use qcn_repro::framework::{
    run, Evaluator, FrameworkConfig, Outcome, RunReport, SearchAccel, StagedBackend,
};
use qcn_repro::intinfer::{snap_to_grid, IntBackend, UnitMode};
use qcn_repro::tensor::parallel;
use std::sync::OnceLock;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// A descent-like sweep of configurations sharing long prefixes, so the
/// prefix-activation cache is actually exercised (layer-wise search only
/// ever changes a suffix).
fn descent_sweep(layers: usize, scheme: RoundingScheme) -> Vec<ModelQuant> {
    let mut sweep = vec![ModelQuant::full_precision(layers)];
    for frac in [8u8, 6] {
        sweep.push(ModelQuant::uniform(layers, frac, scheme));
    }
    // Lower the suffix one layer at a time, as Algorithm 2 does.
    let base = ModelQuant::uniform(layers, 6, scheme);
    for start in 1..layers {
        let mut c = base.clone();
        for l in start..layers {
            c.layers[l].act_frac = Some(4);
        }
        sweep.push(c);
    }
    // Dynamic-routing variants on the last group, as Algorithm 3 does.
    for dr in [5u8, 3] {
        let mut c = base.clone();
        c.layers[layers - 1].dr_frac = Some(dr);
        sweep.push(c);
    }
    // Explicit Q_DR equal to the fallback: must hit the canonical memo.
    let mut c = base.clone();
    c.layers[layers - 1].dr_frac = Some(6);
    sweep.push(c);
    // SR seeds cycle across the sweep (distinct seeds must never share a
    // cache entry), except that the explicit-fallback config keeps the
    // seed of `base` (entry 2), whose memo entry it must alias.
    let last = sweep.len() - 1;
    for (i, c) in sweep.iter_mut().enumerate() {
        c.scheme = scheme;
        c.seed = if scheme == RoundingScheme::Stochastic {
            if i == last {
                2
            } else {
                i as u64 % 3
            }
        } else {
            0
        };
    }
    sweep
}

/// Asserts that accelerated evaluation of `sweep` reproduces the naive
/// accuracies bit-for-bit on `backend`, for every library scheme and
/// thread count, with `fallbacks` configurations scored on the backend's
/// fallback datapath. Returns the accuracy bits per scheme.
fn assert_sweep_bit_identical<B: StagedBackend>(
    backend: &B,
    ds: &Dataset,
    batch: usize,
    fallbacks: usize,
) -> Vec<Vec<u32>> {
    let layers = backend.quant_groups().len();
    let mut per_scheme = Vec::new();
    for scheme in RoundingScheme::EXTENDED {
        let sweep = descent_sweep(layers, scheme);
        let mut naive = Evaluator::with_accel(backend, ds, batch, SearchAccel::naive());
        let reference: Vec<u32> = sweep.iter().map(|c| naive.accuracy(c).to_bits()).collect();
        assert_eq!(naive.stats().fallbacks, fallbacks, "scheme {scheme}");
        for threads in THREAD_COUNTS {
            parallel::with_threads(threads, || {
                let mut accel = Evaluator::with_accel(backend, ds, batch, SearchAccel::default());
                for (config, &want) in sweep.iter().zip(&reference) {
                    let got = accel.accuracy(config).to_bits();
                    assert_eq!(
                        got, want,
                        "accuracy diverged under acceleration: scheme {scheme}, \
                         {threads} threads, config {config:?}"
                    );
                }
                let stats = accel.stats();
                assert!(
                    stats.prefix_hits > 0,
                    "descent sweep should reuse prefixes (scheme {scheme}): {stats:?}"
                );
                assert!(
                    stats.memo_hits > 0,
                    "canonical Q_DR fallback should hit the memo (scheme {scheme}): {stats:?}"
                );
                assert!(stats.evaluations <= sweep.len());
                assert_eq!(stats.fallbacks, fallbacks, "scheme {scheme}");
            });
        }
        per_scheme.push(reference);
    }
    per_scheme
}

#[test]
fn shallowcaps_staged_prefix_reuse_is_bit_identical() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 3);
    let ds = SynthKind::Mnist.generate(30, 3);
    assert_sweep_bit_identical(&model, &ds, 10, 0);
}

/// The integer backend under both unit modes runs the same sweep through
/// the shared evaluator, on an evaluation set snapped to its Q1.7 input
/// grid. Only the FP32 reference config cannot load, so exactly one probe
/// falls back; in FloatExact mode every accuracy equals the fake-quant
/// backend's on the same set.
#[test]
fn integer_backend_sweep_is_bit_identical() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 3);
    let raw = SynthKind::Mnist.generate(30, 3);
    let images = raw.images().map(|v| snap_to_grid(v, 7));
    let ds = Dataset::new(images, raw.labels().to_vec(), 10).unwrap();
    let fake_quant = assert_sweep_bit_identical(&model, &ds, 10, 0);
    for mode in [UnitMode::FloatExact, UnitMode::Integer] {
        let backend = IntBackend::new(&model, model.descriptor(), 7, mode);
        let integer = assert_sweep_bit_identical(&backend, &ds, 10, 1);
        if mode == UnitMode::FloatExact {
            assert_eq!(integer, fake_quant, "FloatExact diverged from fake-quant");
        }
    }
}

#[test]
fn deepcaps_staged_prefix_reuse_is_bit_identical() {
    let mut config = DeepCapsConfig::small(1);
    config.conv_channels = 8;
    config.blocks[0].types = 2;
    config.blocks[1].types = 2;
    config.digit_dim = 6;
    let model = DeepCaps::new(config, 7);
    let ds = SynthKind::Mnist.generate(24, 7);
    assert_sweep_bit_identical(&model, &ds, 8, 0);
}

/// A lightly trained tiny ShallowCaps (cached per test binary) so the
/// framework's accuracy thresholds are meaningful and both paths of
/// Algorithm 1 are reachable.
fn trained() -> (&'static ShallowCaps, &'static Dataset) {
    static CELL: OnceLock<(ShallowCaps, Dataset)> = OnceLock::new();
    let (m, d) = CELL.get_or_init(|| {
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
    (m, d)
}

fn assert_reports_identical(naive: &RunReport, accel: &RunReport, context: &str) {
    assert_eq!(
        naive.acc_fp32.to_bits(),
        accel.acc_fp32.to_bits(),
        "{context}: fp32 reference diverged"
    );
    assert_eq!(naive.step1_frac, accel.step1_frac, "{context}: step 1");
    match (&naive.outcome, &accel.outcome) {
        (Outcome::Satisfied(a), Outcome::Satisfied(b)) => {
            assert_eq!(a.config, b.config, "{context}: selected config");
            assert_eq!(
                a.accuracy.to_bits(),
                b.accuracy.to_bits(),
                "{context}: reported accuracy"
            );
        }
        (
            Outcome::Fallback {
                memory: am,
                accuracy: aa,
            },
            Outcome::Fallback {
                memory: bm,
                accuracy: ba,
            },
        ) => {
            assert_eq!(am.config, bm.config, "{context}: memory config");
            assert_eq!(aa.config, ba.config, "{context}: accuracy config");
            assert_eq!(am.accuracy.to_bits(), bm.accuracy.to_bits(), "{context}");
            assert_eq!(aa.accuracy.to_bits(), ba.accuracy.to_bits(), "{context}");
        }
        _ => panic!("{context}: acceleration changed the Algorithm 1 path"),
    }
}

/// The full Algorithm 1 run — binary search, Eq. 6, layer-wise descent and
/// DR specialisation — must select the same configurations and report the
/// same accuracies with acceleration on as with `SearchAccel::naive()`,
/// for every scheme and thread count.
#[test]
fn framework_run_is_invariant_under_acceleration_and_threads() {
    let (model, ds) = trained();
    let total_weights: u64 = model.groups().iter().map(|g| g.weight_count as u64).sum();
    let base = FrameworkConfig {
        acc_tol: 0.2,
        memory_budget_bits: total_weights * 8,
        eval_batch: 20,
        ..FrameworkConfig::default()
    };
    for scheme in RoundingScheme::EXTENDED {
        let naive_report = run(
            model,
            ds,
            &FrameworkConfig {
                scheme,
                accel: SearchAccel::naive(),
                ..base.clone()
            },
        );
        for threads in THREAD_COUNTS {
            let accel_report = parallel::with_threads(threads, || {
                run(
                    model,
                    ds,
                    &FrameworkConfig {
                        scheme,
                        ..base.clone()
                    },
                )
            });
            assert_reports_identical(
                &naive_report,
                &accel_report,
                &format!("scheme {scheme}, {threads} threads"),
            );
            // Speculative probes (wasted parallel lookahead) may exceed
            // the sequential count, but the *useful* probes — everything
            // up to each round's first failure — never do.
            let useful = accel_report.stats.evaluations - accel_report.stats.speculative_probes;
            assert!(
                useful <= naive_report.stats.evaluations,
                "scheme {scheme}, {threads} threads: {useful} useful evals vs naive {}",
                naive_report.stats.evaluations
            );
        }
    }
}

/// Early exit in isolation (no prefix reuse, no parallel probes) drives
/// the layer-wise and DR descents to the same Pareto configuration as
/// exact full-batch scoring, and the final accuracy read back is exact.
#[test]
fn early_exit_descent_matches_exact_mode() {
    use qcapsnets::algorithms::{dr_quant, layerwise, ParamDomain};
    let (model, ds) = trained();
    let early_only = SearchAccel {
        prefix_reuse: false,
        parallel_probes: false,
        ..SearchAccel::default()
    };
    for scheme in [RoundingScheme::RoundToNearest, RoundingScheme::Stochastic] {
        let start = ModelQuant::uniform(3, 8, scheme);
        let mut exact = Evaluator::with_accel(model, ds, 20, SearchAccel::naive());
        let acc_min = exact.accuracy(&start) * 0.9;
        let want_lw = layerwise(&mut exact, &start, ParamDomain::Activations, acc_min);
        let want_dr = dr_quant(&mut exact, &want_lw, acc_min);
        let want_acc = exact.accuracy(&want_dr).to_bits();

        let mut early = Evaluator::with_accel(model, ds, 20, early_only);
        let got_lw = layerwise(&mut early, &start, ParamDomain::Activations, acc_min);
        let got_dr = dr_quant(&mut early, &got_lw, acc_min);
        assert_eq!(want_lw, got_lw, "layerwise diverged under early exit");
        assert_eq!(want_dr, got_dr, "dr_quant diverged under early exit");
        assert_eq!(
            early.accuracy(&got_dr).to_bits(),
            want_acc,
            "early-exit evaluator must still report exact accuracies"
        );
    }
}

/// Layer-uniform sweeps never share prefixes (layer 0 changes every time),
/// so the cache must not fabricate reuse — it simply stays cold while
/// results remain exact.
#[test]
fn uniform_sweep_stays_exact_without_shared_prefixes() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 11);
    let ds = SynthKind::Mnist.generate(20, 11);
    let mut naive = Evaluator::with_accel(&model, &ds, 10, SearchAccel::naive());
    let mut accel = Evaluator::with_accel(&model, &ds, 10, SearchAccel::default());
    for frac in 0..10u8 {
        let c = ModelQuant::uniform(3, frac, RoundingScheme::RoundToNearestEven);
        assert_eq!(naive.accuracy(&c).to_bits(), accel.accuracy(&c).to_bits());
    }
    assert_eq!(accel.stats().memo_hits, 0);
}

/// `LayerQuant` default-field sanity for the sweep builder above: uniform
/// configs leave DR and stream widths unset, which is what makes the
/// canonical-memo assertions in the sweep meaningful.
#[test]
fn sweep_configs_leave_dr_unset_except_where_probed() {
    let sweep = descent_sweep(3, RoundingScheme::RoundToNearest);
    assert!(sweep
        .iter()
        .all(|c| c.layers[0].dr_frac.is_none() && c.layers[0].stream_frac.is_none()));
    assert!(sweep.iter().any(|c| c.layers[2].dr_frac == Some(6)));
    let _ = LayerQuant::full_precision();
}
