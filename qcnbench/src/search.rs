//! The library-search workload: Algorithm 1 over TRN/RTN/RTNE/SR on the
//! trained ShallowCaps-S, then on the trained DeepCaps-S, back to back.

use crate::calib::Track;
use crate::stats::nearest_rank;
use crate::{median, Pass};
use qcapsnets::{run, select, FrameworkConfig, Outcome, RunReport, SearchAccel, Selection};
use qcn_capsnet::{
    train, CapsNet, DeepCaps, DeepCapsConfig, ModelQuant, QuantCtx, ShallowCaps, ShallowCapsConfig,
    TrainConfig,
};
use qcn_datasets::augment::AugmentPolicy;
use qcn_datasets::{Dataset, SynthKind};
use qcn_fixed::RoundingScheme;
use std::time::{Duration, Instant};

/// Kernel threads the search runs with.
pub const KERNEL_THREADS: usize = 2;
/// Trainings per run; `setup_s` is their median.
const SETUPS: usize = 3;
const EVAL_BATCH: usize = 6;
const SCHEMES: [RoundingScheme; 4] = RoundingScheme::EXTENDED;

/// One model's `framework::run` reports in library order, each with its
/// wall time in seconds.
type Runs = Vec<(RunReport, f64)>;
/// Reads one evaluator counter from a report.
type Counter = fn(&RunReport) -> usize;

/// ShallowCaps-S trained to a clean quantization cliff (uniform Q.3 holds,
/// Q.2 collapses), so the accuracy thresholds bind.
fn trained_shallow() -> (ShallowCaps, Dataset) {
    let config = ShallowCapsConfig {
        conv_channels: 64,
        primary_types: 2,
        digit_dim: 6,
        ..ShallowCapsConfig::small(1)
    };
    let mut model = ShallowCaps::new(config, 5);
    let (train_set, test_set) = SynthKind::Mnist.train_test(600, 120, 5);
    train(
        &mut model,
        &train_set,
        &test_set,
        &TrainConfig {
            epochs: 8,
            batch_size: 25,
            lr: 0.01,
            augment: AugmentPolicy::none(),
            ..TrainConfig::default()
        },
    );
    (model, test_set)
}

fn trained_deep() -> (DeepCaps, Dataset) {
    let mut config = DeepCapsConfig::small(1);
    config.conv_channels = 8;
    config.blocks[0].types = 2;
    config.blocks[1].types = 2;
    config.digit_dim = 6;
    let mut model = DeepCaps::new(config, 31);
    let (train_set, test_set) = SynthKind::Mnist.train_test(200, 60, 31);
    train(
        &mut model,
        &train_set,
        &test_set,
        &TrainConfig {
            epochs: 2,
            batch_size: 25,
            lr: 0.003,
            augment: AugmentPolicy::none(),
            ..TrainConfig::default()
        },
    );
    (model, test_set)
}

/// 10% accuracy tolerance, 8 bits per weight, at most 6 fractional bits.
fn search_base(model: &impl CapsNet) -> FrameworkConfig {
    let total_weights: u64 = model.groups().iter().map(|g| g.weight_count as u64).sum();
    FrameworkConfig {
        acc_tol: 0.1,
        memory_budget_bits: total_weights * 8,
        eval_batch: EVAL_BATCH,
        max_frac_bits: 6,
        ..FrameworkConfig::default()
    }
}

/// Same Algorithm 1 path: bit-identical configs and reported accuracies.
fn same_selection(a: &RunReport, b: &RunReport) -> bool {
    if a.acc_fp32.to_bits() != b.acc_fp32.to_bits() || a.step1_frac != b.step1_frac {
        return false;
    }
    match (&a.outcome, &b.outcome) {
        (Outcome::Satisfied(x), Outcome::Satisfied(y)) => {
            x.config == y.config && x.accuracy.to_bits() == y.accuracy.to_bits()
        }
        (
            Outcome::Fallback {
                memory: xm,
                accuracy: xa,
            },
            Outcome::Fallback {
                memory: ym,
                accuracy: ya,
            },
        ) => {
            xm.config == ym.config
                && xa.config == ya.config
                && xm.accuracy.to_bits() == ym.accuracy.to_bits()
                && xa.accuracy.to_bits() == ya.accuracy.to_bits()
        }
        _ => false,
    }
}

/// One model's library search as the benchmark drives it: one
/// `framework::run` per scheme, in `order`, then the §III-B selection over
/// the runs in library order.
fn library<M: CapsNet + Sync>(
    model: &M,
    ds: &Dataset,
    base: &FrameworkConfig,
    order: &[usize],
) -> (Runs, Selection) {
    let mut runs: Vec<Option<(RunReport, f64)>> = vec![None, None, None, None];
    for &s in order {
        let start = Instant::now();
        let report = run(
            model,
            ds,
            &FrameworkConfig {
                scheme: SCHEMES[s],
                ..base.clone()
            },
        );
        runs[s] = Some((report, start.elapsed().as_secs_f64()));
    }
    let runs: Runs = runs
        .into_iter()
        .map(|r| r.expect("every scheme ran"))
        .collect();
    let by_scheme: Vec<(RoundingScheme, RunReport)> = SCHEMES
        .iter()
        .zip(&runs)
        .map(|(&s, (r, _))| (s, r.clone()))
        .collect();
    let selection = select(&by_scheme);
    (runs, selection)
}

fn selected_config(sel: &Selection) -> &ModelQuant {
    match sel {
        Selection::Satisfied { result, .. } => &result.config,
        Selection::Fallback { memory, .. } => &memory.1.config,
    }
}

/// Median wall time of each inference stage at the search's eval batch,
/// under the model's selected configuration, at reference host speed.
fn stage_times<M: CapsNet>(
    model: &M,
    ds: &Dataset,
    config: &ModelQuant,
    track: &mut Track,
) -> Vec<(String, f64)> {
    let qmodel = model.with_quantized_weights(config);
    let idx: Vec<usize> = (0..EVAL_BATCH).collect();
    let (mut x, _) = ds.batch(&idx);
    let mut out = Vec::new();
    for (s, group) in model.groups().iter().enumerate().take(model.num_stages()) {
        let budget = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 5
            || (budget.elapsed() < Duration::from_millis(150) && samples.len() < 1000)
        {
            let mut ctx = QuantCtx::from_config(config);
            let t = Instant::now();
            std::hint::black_box(qmodel.infer_stage(s, &x, config, &mut ctx));
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        out.push((group.name.clone(), median(&samples) / track.mark()));
        let mut ctx = QuantCtx::from_config(config);
        x = qmodel.infer_stage(s, &x, config, &mut ctx);
    }
    out
}

/// Sums of the evaluator counters over both models, per scheme.
fn core_counts(runs: &[&Runs]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let fields: [(&str, Counter); 7] = [
        ("evaluations", |r| r.stats.evaluations),
        ("stages_run", |r| r.stats.stages_run),
        ("stages_skipped", |r| r.stats.stages_skipped),
        ("prefix_hits", |r| r.stats.prefix_hits),
        ("memo_hits", |r| r.stats.memo_hits),
        ("early_exits", |r| {
            r.stats.early_accepts + r.stats.early_rejects
        }),
        ("speculative_probes", |r| r.stats.speculative_probes),
    ];
    for (field, get) in fields {
        for (s, scheme) in SCHEMES.iter().enumerate() {
            let total: usize = runs.iter().map(|m| get(&m[s].0)).sum();
            out.push((format!("core.{field}.{scheme}"), total as f64));
        }
    }
    out
}

/// Runs one pass of the search workload. The seed fixes the order in
/// which each library search visits the models and the schemes.
pub fn run_pass(seed: u64, seconds: f64, traced: bool) -> Pass {
    let mut track = Track::start();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut measured_setup_s = Vec::with_capacity(SETUPS);
    let mut models = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let shallow = trained_shallow();
        let deep = trained_deep();
        let secs = start.elapsed().as_secs_f64();
        measured_setup_s.push(secs);
        setup_s.push(secs / track.mark());
        models = Some((shallow, deep));
    }
    let ((shallow, sds), (deep, dds)) = models.expect("at least one set-up");
    let (sbase, dbase) = (search_base(&shallow), search_base(&deep));

    let rot = (seed % 4) as usize;
    let order: Vec<usize> = (0..4).map(|i| (i + rot) % 4).collect();
    let deep_first = (seed / 4) % 2 == 1;

    // The oracle: one naive (unaccelerated) library search per model.
    let naive = |base: &FrameworkConfig| FrameworkConfig {
        accel: SearchAccel::naive(),
        ..base.clone()
    };
    let (snaive, ssel) = library(&shallow, &sds, &naive(&sbase), &[0, 1, 2, 3]);
    let (dnaive, dsel) = library(&deep, &dds, &naive(&dbase), &[0, 1, 2, 3]);
    track.mark();

    let mut search_s = Vec::new();
    let mut measured_s = Vec::new();
    let mut runs_done = 0u64;
    let mut mismatched = 0u64;
    let mut run_secs = 0.0;
    let mut per_run: Vec<Vec<f64>> = vec![Vec::new(); 8];
    let mut first: Option<(Runs, Runs)> = None;
    let mut counts_repeat = true;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while search_s.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let (s, d) = if deep_first {
            let d = library(&deep, &dds, &dbase, &order);
            (library(&shallow, &sds, &sbase, &order), d)
        } else {
            let s = library(&shallow, &sds, &sbase, &order);
            (s, library(&deep, &dds, &dbase, &order))
        };
        let secs = t.elapsed().as_secs_f64();
        let dilation = track.mark();
        search_s.push(secs / dilation);
        measured_s.push(secs);
        for ((runs, sel), (want, want_sel)) in [(&s, (&snaive, &ssel)), (&d, (&dnaive, &dsel))] {
            for ((got, _), (exp, _)) in runs.iter().zip(want.iter()) {
                runs_done += 1;
                if !same_selection(got, exp) {
                    mismatched += 1;
                }
            }
            if sel != want_sel {
                mismatched += 1;
            }
        }
        for (i, (_, secs)) in s.0.iter().chain(&d.0).enumerate() {
            per_run[i].push(secs / dilation);
            run_secs += secs / dilation;
        }
        let stats =
            |r: &Runs| -> Vec<String> { r.iter().map(|(x, _)| format!("{:?}", x.stats)).collect() };
        match &first {
            None => first = Some((s.0, d.0)),
            Some((fs, fd)) => {
                counts_repeat &= stats(fs) == stats(&s.0) && stats(fd) == stats(&d.0);
            }
        }
    }
    let mut sorted = search_s.clone();
    sorted.sort_by(f64::total_cmp);

    let mut pass = Pass::new();
    pass.e2e = vec![
        ("setup_s", median(&setup_s)),
        ("lat_p50_ms", nearest_rank(&sorted, 0.5) * 1e3),
        ("lat_p90_ms", nearest_rank(&sorted, 0.9) * 1e3),
        // Each library search is eight Algorithm 1 runs.
        ("capacity_rps", 8.0 / median(&search_s)),
    ];
    pass.dilation = track.median();
    pass.attempted = runs_done;
    pass.failed = mismatched;
    pass.mismatched = mismatched;
    pass.manifest = vec![
        ("setup_s_measured", crate::num(median(&measured_setup_s))),
        ("lat_p50_ms_measured", crate::num(median(&measured_s) * 1e3)),
        ("kernel_threads", KERNEL_THREADS.to_string()),
        ("offered_rps", "null".to_string()),
        ("window", "null".to_string()),
        ("eval_batch", EVAL_BATCH.to_string()),
        ("setups", SETUPS.to_string()),
        ("library_searches", search_s.len().to_string()),
        (
            "runs_per_s_whole_run",
            crate::num(runs_done as f64 / run_secs),
        ),
        ("scheme_order", format!("{:?}", order)),
        ("deep_first", deep_first.to_string()),
        ("core_counts_repeat", counts_repeat.to_string()),
    ];
    if traced {
        let names = ["shallow", "deep"];
        let mut layers = Vec::new();
        for (m, name) in names.iter().enumerate() {
            for (s, scheme) in SCHEMES.iter().enumerate() {
                layers.push((
                    format!("search.{name}.{scheme}_s"),
                    median(&per_run[m * 4 + s]),
                ));
            }
        }
        let (fs, fd) = first.expect("at least one library search");
        layers.extend(core_counts(&[&fs, &fd]));
        for (stage, us) in stage_times(&shallow, &sds, selected_config(&ssel), &mut track) {
            layers.push((format!("stage.shallow.{stage}_us"), us));
        }
        for (stage, us) in stage_times(&deep, &dds, selected_config(&dsel), &mut track) {
            layers.push((format!("stage.deep.{stage}_us"), us));
        }
        pass.layers = layers;
    }
    pass
}
