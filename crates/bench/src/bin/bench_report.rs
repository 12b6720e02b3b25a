//! Machine-readable report of the kernel, integer-inference and search
//! timings (minimum of 15 samples).
//!
//! Times the tensor hot paths (matmul / bmm / conv2d / capsule votes /
//! dynamic routing) at the pool width in effect (`QCN_NUM_THREADS`, else
//! the hardware count), the fused quantization epilogues against
//! compute-then-round, whole-network inference on the fake-quant and
//! integer engines with per-stage times from the production stage spans,
//! and Algorithm 1 end to end against the naive evaluator. Writes the
//! results to a JSON file (`BENCH_kernels.json` by default, or the path
//! given as the only argument); the checked-in copy holds the numbers
//! quoted in `docs/performance.md`. Serving, socket and router throughput
//! are measured by the repository benchmark (`qcnbench`), not here.
//!
//! `bench_report --search-smoke` runs the ShallowCaps-S / RTN search on
//! the fake-quant and the integer backend, and asserts that the
//! accelerated evaluator selects exactly what the naive one does, and the
//! integer backend exactly what the fake-quant one does.

use qcapsnets::export::pack_model;
use qcapsnets::{run as run_framework, FrameworkConfig, RunReport, SearchAccel, StagedBackend};
use qcn_capsnet::layers::{caps_votes_infer, caps_votes_infer_fused, CapsFc};
use qcn_capsnet::{
    train, CapsNet, DeepCaps, DeepCapsConfig, LayerQuant, ModelQuant, QuantCtx, ShallowCaps,
    ShallowCapsConfig, TrainConfig,
};
use qcn_datasets::augment::AugmentPolicy;
use qcn_datasets::{Dataset, SynthKind};
use qcn_fixed::{QFormat, Quantizer, RoundingScheme};
use qcn_hwmodel::archstats;
use qcn_hwmodel::latency::Accelerator;
use qcn_intinfer::{snap_to_grid, IntBackend, IntModel, UnitMode};
use qcn_telemetry::MetricValue;
use qcn_tensor::conv::{conv2d, conv2d_fused, Conv2dSpec};
use qcn_tensor::parallel::{current_threads, with_threads};
use qcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Best-case wall-clock milliseconds per call: warm up, size the batch so
/// one sample spans ≥ ~5 ms, then take the minimum of 15 samples (the
/// sample least disturbed by other tenants of the machine).
fn measure(mut f: impl FnMut()) -> f64 {
    f();
    let probe = Instant::now();
    f();
    let est = probe.elapsed().as_secs_f64();
    let iters = ((0.005 / est.max(1e-9)).ceil() as usize).clamp(1, 10_000);
    (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e3 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One report row: `(key, value)` pairs, each value already JSON text
/// (see [`string`], [`num`], [`object`]).
type Row = Vec<(&'static str, String)>;

/// A JSON string literal.
fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON number with a fixed count of decimals.
fn num(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// A one-line JSON object of `(key, value)` pairs.
fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k.as_ref())))
        .collect();
    format!("{{ {} }}", body.join(", "))
}

/// The report document: top-level scalar fields, then one array of
/// one-line row objects per section.
fn report(header: &[(&str, String)], sections: &[(&str, Vec<Row>)]) -> String {
    let mut items: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("  {}: {v}", string(k)))
        .collect();
    for (name, rows) in sections {
        let rows: Vec<String> = rows.iter().map(|r| format!("    {}", object(r))).collect();
        items.push(format!("  {}: [\n{}\n  ]", string(name), rows.join(",\n")));
    }
    format!("{{\n{}\n}}\n", items.join(",\n"))
}

/// `(count, sum µs)` of the integer engine's stage-time histogram for
/// `model`, per stage.
fn int_stage_totals(model: &str) -> Vec<(String, u64, f64)> {
    let mut out = Vec::new();
    for m in qcn_telemetry::global().snapshot() {
        let label = |k: &str| m.labels.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        if m.name != "qcn_stage_duration_us"
            || label("engine").map(String::as_str) != Some("integer")
            || label("model").map(String::as_str) != Some(model)
        {
            continue;
        }
        if let (Some(stage), MetricValue::Histogram { count, sum, .. }) = (label("stage"), &m.value)
        {
            out.push((stage.clone(), *count, *sum));
        }
    }
    out
}

/// A full-network comparison of the three execution paths for one packed
/// model under `config` (RTN so timing excludes RNG cost differences) on
/// an on-grid input batch: the fake-quant f32 reference, the integer
/// engine with float-exact units (bit-identical by construction —
/// `bit_exact` records the measured check), and the pure-integer engine.
/// `capsacc_latency_us` is the CapsAcc analytical latency of the
/// architecture from the hardware model, tying the software timings to
/// the accelerator the wordlength blob targets. `stage_us` is the
/// float-exact engine's mean time per call of each stage (L1, L2, L3, ...),
/// read from the stage spans production exports (`qcn_stage_duration_us`);
/// empty when telemetry is off.
fn int_infer_row<M: CapsNet>(
    name: &str,
    model: &M,
    desc: &qcn_capsnet::descriptor::ModelDesc,
    config: &ModelQuant,
    x: &Tensor,
    in_frac: u8,
    capsacc_latency_us: f64,
) -> Row {
    let qmodel = model.with_quantized_weights(config);
    let engine = IntModel::load(desc, &pack_model(model, config)).expect("config fully quantized");
    let mut ctx = QuantCtx::from_config(config);
    let want = qmodel.infer(x, config, &mut ctx);
    let got = engine.infer(x, in_frac, UnitMode::FloatExact);
    let fake_quant_ms = measure(|| {
        let mut ctx = QuantCtx::from_config(config);
        black_box(qmodel.infer(black_box(x), config, &mut ctx));
    });
    let float_exact_ms = measure(|| {
        black_box(engine.infer(black_box(x), in_frac, UnitMode::FloatExact));
    });
    let integer_ms = measure(|| {
        black_box(engine.infer(black_box(x), in_frac, UnitMode::Integer));
    });
    // Per-stage float-exact times: the spans' histogram gain over a run.
    let before = int_stage_totals(engine.name());
    for _ in 0..200 {
        black_box(engine.infer(black_box(x), in_frac, UnitMode::FloatExact));
    }
    let after = int_stage_totals(engine.name());
    let totals = |at: &[(String, u64, f64)], stage: &str| {
        at.iter()
            .find(|(s, _, _)| s == stage)
            .map(|&(_, count, sum)| (count, sum))
    };
    let stage_us: Vec<(&str, String)> = engine
        .group_names()
        .into_iter()
        .filter_map(|stage| {
            let (count, sum) = totals(&after, stage)?;
            let (c0, s0) = totals(&before, stage).unwrap_or((0, 0.0));
            Some((stage, num((sum - s0) / (count - c0).max(1) as f64, 1)))
        })
        .collect();
    vec![
        ("name", string(name)),
        ("fake_quant_ms", num(fake_quant_ms, 4)),
        ("float_exact_ms", num(float_exact_ms, 4)),
        ("integer_ms", num(integer_ms, 4)),
        ("bit_exact", (got.data() == want.data()).to_string()),
        ("capsacc_latency_us", num(capsacc_latency_us, 2)),
        ("stage_us", object(&stage_us)),
    ]
}

/// One end-to-end Algorithm 1 timing: the full framework run (binary
/// search + Eq. 6 + layer-wise descent + DR specialisation) with the
/// search accelerations on, against `SearchAccel::naive()` — the pre-PR
/// evaluator that re-ran every candidate from the input layer over the
/// whole dataset. `identical_selection` records the exactness contract:
/// the selected configs and reported accuracies match the naive run
/// bit-for-bit at every thread count in {1, 2, 7} (and, on the integer
/// backend, the fake-quant run). `report` is the accelerated run, whose
/// counters the row prints.
struct SearchEntry {
    name: &'static str,
    scheme: RoundingScheme,
    naive_ms: f64,
    accel_ms: f64,
    naive_evals: usize,
    identical_selection: bool,
    report: RunReport,
}

/// Selection identity check: same Algorithm 1 path, identical configs and
/// reported accuracies (finite and non-negative, so `==` is bit equality).
fn same_selection(a: &RunReport, b: &RunReport) -> bool {
    a.acc_fp32 == b.acc_fp32 && a.step1_frac == b.step1_frac && a.outcome == b.outcome
}

fn search_entry<B: StagedBackend>(
    name: &'static str,
    backend: &B,
    ds: &Dataset,
    base: &FrameworkConfig,
    scheme: RoundingScheme,
) -> SearchEntry {
    let naive_config = FrameworkConfig {
        scheme,
        accel: SearchAccel::naive(),
        ..base.clone()
    };
    let accel_config = FrameworkConfig {
        scheme,
        ..base.clone()
    };
    // Full runs take hundreds of milliseconds, so take the min over three
    // passes (rather than min-of-15) to shed scheduler noise.
    let timed = |config: &FrameworkConfig| {
        let mut best_ms = f64::INFINITY;
        let mut report = None;
        for _ in 0..3 {
            let start = Instant::now();
            report = Some(run_framework(backend, ds, config));
            best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        }
        (report.expect("three passes"), best_ms)
    };
    let (naive, naive_ms) = timed(&naive_config);
    let (accel, accel_ms) = timed(&accel_config);
    // The exactness contract, re-checked under forced pools: serial, even
    // and odd splits all reproduce the naive selection bit-for-bit.
    let identical = same_selection(&naive, &accel)
        && [1usize, 2, 7].iter().all(|&t| {
            let r = with_threads(t, || run_framework(backend, ds, &accel_config));
            same_selection(&naive, &r)
        });
    SearchEntry {
        name,
        scheme,
        naive_ms,
        accel_ms,
        naive_evals: naive.stats.evaluations,
        identical_selection: identical,
        report: accel,
    }
}

/// Properly trained CPU-scale models: the search benches need accuracy
/// thresholds that actually bind (an untrained model's near-chance
/// accuracy would let every descent run straight to the floor, and a
/// half-trained one puts the quantization cliff in degenerate places).
/// This ShallowCaps-S reaches 100% on the synthetic eval set with a clean
/// cliff: uniform Q.3 holds 99.2%, uniform Q.2 collapses to chance.
fn trained_shallow_s() -> (ShallowCaps, Dataset) {
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

fn trained_deep_s() -> (DeepCaps, Dataset) {
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

/// The benchmarked Algorithm 1 workload: 10% accuracy tolerance, a weight
/// budget of 8 bits per weight, and the search capped at 6 fractional bits
/// (8-bit fixed-point words: sign, integer bit, Q.6) — the regime the
/// paper's Table I results live in.
fn search_base(model: &impl CapsNet) -> FrameworkConfig {
    let total_weights: u64 = model.groups().iter().map(|g| g.weight_count as u64).sum();
    FrameworkConfig {
        acc_tol: 0.1,
        memory_budget_bits: total_weights * 8,
        eval_batch: 6,
        max_frac_bits: 6,
        ..FrameworkConfig::default()
    }
}

/// The evaluation set snapped once to the Q1.7 input grid, so the
/// fake-quant and integer backends score the same inputs.
fn snapped(ds: &Dataset) -> Dataset {
    let images = ds.images().map(|v| snap_to_grid(v, 7));
    Dataset::new(images, ds.labels().to_vec(), ds.num_classes()).expect("same shape")
}

/// The `search` bench section: Algorithm 1 end to end, accelerated vs
/// naive, with ShallowCaps-S scored on the fake-quant and the integer
/// (FloatExact) backend. `smoke` restricts to the ShallowCaps-S / RTN
/// entries so CI can assert the exactness contracts in seconds.
fn search_entries(smoke: bool) -> Vec<SearchEntry> {
    let mut entries = Vec::new();
    let (shallow, sds) = trained_shallow_s();
    let sds = snapped(&sds);
    let sbase = search_base(&shallow);
    let int_shallow = IntBackend::new(&shallow, shallow.descriptor(), 7, UnitMode::FloatExact);
    let schemes: &[RoundingScheme] = if smoke {
        &[RoundingScheme::RoundToNearest]
    } else {
        &RoundingScheme::EXTENDED
    };
    for &scheme in schemes {
        let fake = search_entry("ShallowCaps-S Algorithm 1", &shallow, &sds, &sbase, scheme);
        let mut int = search_entry(
            "ShallowCaps-S Algorithm 1 (integer FloatExact)",
            &int_shallow,
            &sds,
            &sbase,
            scheme,
        );
        int.identical_selection &= same_selection(&fake.report, &int.report);
        entries.push(fake);
        entries.push(int);
    }
    if !smoke {
        let (deep, dds) = trained_deep_s();
        let dds = snapped(&dds);
        let dbase = search_base(&deep);
        for scheme in [RoundingScheme::RoundToNearest, RoundingScheme::Stochastic] {
            entries.push(search_entry(
                "DeepCaps-S Algorithm 1",
                &deep,
                &dds,
                &dbase,
                scheme,
            ));
        }
    }
    entries
}

fn main() {
    // Progress lines go through the leveled log facade at Info; the
    // default level is Warn, so raise it here — QCN_LOG still overrides
    // in both directions.
    qcn_telemetry::set_default_level(qcn_telemetry::Level::Info);
    if std::env::args().nth(1).as_deref() == Some("--search-smoke") {
        qcn_telemetry::info!(
            "bench_report",
            "search smoke (ShallowCaps-S RTN, both backends)"
        );
        for e in search_entries(true) {
            println!(
                "{} [{}]: naive {:.0} ms / {} evals, accel {:.0} ms / {} evals \
                 ({:.2}x), identical_selection={}, fallbacks={}",
                e.name,
                e.scheme,
                e.naive_ms,
                e.naive_evals,
                e.accel_ms,
                e.report.stats.evaluations,
                e.naive_ms / e.accel_ms,
                e.identical_selection,
                e.report.stats.fallbacks
            );
            assert!(
                e.identical_selection,
                "{}: search diverged from the naive or the fake-quant selection",
                e.name
            );
        }
        return;
    }
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let threads = current_threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    qcn_telemetry::info!(
        "bench_report",
        "timing kernels with {threads} thread(s), {nproc} available"
    );

    let mut rng = StdRng::seed_from_u64(0);
    let ma = Tensor::rand_uniform([256, 256], -1.0, 1.0, &mut rng);
    let mb = Tensor::rand_uniform([256, 256], -1.0, 1.0, &mut rng);
    let ba = Tensor::rand_uniform([16, 64, 64], -1.0, 1.0, &mut rng);
    let bb = Tensor::rand_uniform([16, 64, 64], -1.0, 1.0, &mut rng);
    let conv_in = Tensor::rand_uniform([8, 16, 16, 16], -1.0, 1.0, &mut rng);
    let conv_w = Tensor::rand_uniform([32, 16, 3, 3], -1.0, 1.0, &mut rng);
    let conv_b = Tensor::rand_uniform([32], -1.0, 1.0, &mut rng);
    let spec = Conv2dSpec::new(3, 3, 1, 1);
    let votes_in = Tensor::rand_uniform([16, 128, 4], -1.0, 1.0, &mut rng);
    let votes_w = Tensor::rand_uniform([128, 10, 4, 8], -1.0, 1.0, &mut rng);
    let layer = CapsFc::new(128, 4, 10, 8, 3, &mut rng);
    let caps_in = Tensor::rand_uniform([16, 128, 4], -0.5, 0.5, &mut rng).squash_axis(2);
    let fp = LayerQuant::full_precision();
    let sr_quant = LayerQuant {
        weight_frac: Some(8),
        act_frac: Some(6),
        dr_frac: Some(5),
        ..LayerQuant::full_precision()
    };

    let kernel = |name: &str, ms: f64| -> Row { vec![("name", string(name)), ("ms", num(ms, 4))] };
    let kernels = vec![
        kernel(
            "matmul 256x256x256 blocked",
            measure(|| {
                black_box(black_box(&ma).matmul(black_box(&mb)));
            }),
        ),
        kernel(
            "bmm 16x64x64x64",
            measure(|| {
                black_box(black_box(&ba).bmm(black_box(&bb)));
            }),
        ),
        kernel(
            "conv2d 8x16x16x16 -> 32ch 3x3",
            measure(|| {
                black_box(conv2d(
                    black_box(&conv_in),
                    black_box(&conv_w),
                    Some(&conv_b),
                    spec,
                ));
            }),
        ),
        kernel(
            "caps_votes 16x128x4 -> 10x8",
            measure(|| {
                black_box(caps_votes_infer(black_box(&votes_in), black_box(&votes_w)));
            }),
        ),
        kernel(
            "caps_fc routing fp32 (3 iters)",
            measure(|| {
                let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
                black_box(layer.infer(black_box(&caps_in), &fp, &mut ctx));
            }),
        ),
        kernel(
            "caps_fc routing SR a6/dr5 (3 iters)",
            measure(|| {
                let mut ctx = QuantCtx::new(RoundingScheme::Stochastic, 0);
                black_box(layer.infer(black_box(&caps_in), &sr_quant, &mut ctx));
            }),
        ),
    ];

    // Fused-epilogue rounding vs the compute-then-round composition: the
    // same kernel + rounding work, once with a sequential second pass that
    // rounds element-by-element with `RoundingScheme::round` (the path the
    // quantized inference used before the epilogues existed), once with
    // the rounding fused into the kernel's writeback. Both produce
    // bit-identical results (see `tests/fused_quantization.rs`).
    let q6 = QFormat::with_frac(6);
    let round_after = |t: &mut Tensor, scheme: RoundingScheme| {
        let mut rng = StdRng::seed_from_u64(1);
        for v in t.data_mut() {
            *v = scheme.round(*v, q6, &mut rng);
        }
    };
    let fused_row = |name: String, round_after_ms: f64, fused_ms: f64| -> Row {
        vec![
            ("name", string(&name)),
            ("round_after_ms", num(round_after_ms, 4)),
            ("fused_ms", num(fused_ms, 4)),
            ("speedup", num(round_after_ms / fused_ms, 2)),
        ]
    };
    let mut fused = Vec::new();
    for scheme in [RoundingScheme::RoundToNearest, RoundingScheme::Stochastic] {
        let fq = Quantizer::new(q6, scheme).fused(0x5EED);
        fused.push(fused_row(
            format!("conv2d 8x16x16x16 -> 32ch 3x3 + Qa {scheme}"),
            measure(|| {
                let mut out = conv2d(black_box(&conv_in), black_box(&conv_w), Some(&conv_b), spec);
                round_after(&mut out, scheme);
                black_box(out);
            }),
            measure(|| {
                let epi = |off: usize, row: &mut [f32]| fq.apply(off, row);
                black_box(conv2d_fused(
                    black_box(&conv_in),
                    black_box(&conv_w),
                    Some(&conv_b),
                    spec,
                    Some(&epi),
                ));
            }),
        ));
        fused.push(fused_row(
            format!("caps_votes 16x128x4 -> 10x8 + Q_DR {scheme}"),
            measure(|| {
                let mut out = caps_votes_infer(black_box(&votes_in), black_box(&votes_w));
                round_after(&mut out, scheme);
                black_box(out);
            }),
            measure(|| {
                black_box(caps_votes_infer_fused(
                    black_box(&votes_in),
                    black_box(&votes_w),
                    Some(&fq),
                ));
            }),
        ));
    }

    // Whole-network integer inference vs the fake-quant reference, on the
    // CPU-scale model variants the integration suites train. Inputs are
    // snapped to the Q1.5 deployment grid so the two paths see identical
    // operands.
    let grid_input = |dims: [usize; 4], seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_uniform(dims, 0.0, 1.0, &mut rng).map(|v| snap_to_grid(v, 5))
    };
    let integer = {
        let shallow = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
        let mut sconfig = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
        for lq in &mut sconfig.layers {
            lq.dr_frac = Some(4);
        }
        let deep = DeepCaps::new(DeepCapsConfig::small(1), 9);
        let mut dconfig = ModelQuant::uniform(4, 5, RoundingScheme::RoundToNearest);
        for lq in &mut dconfig.layers {
            lq.dr_frac = Some(4);
            lq.stream_frac = Some(5);
        }
        let capsacc = Accelerator::capsacc();
        let shallow_us = capsacc.latency_us(&archstats::shallow_caps());
        vec![
            int_infer_row(
                "ShallowCaps-S b1 uniform Q1.5 / dr Q1.4",
                &shallow,
                &shallow.descriptor(),
                &sconfig,
                &grid_input([1, 1, 16, 16], 7),
                5,
                shallow_us,
            ),
            int_infer_row(
                "ShallowCaps-S b8 uniform Q1.5 / dr Q1.4",
                &shallow,
                &shallow.descriptor(),
                &sconfig,
                &grid_input([8, 1, 16, 16], 7),
                5,
                shallow_us,
            ),
            int_infer_row(
                "DeepCaps-S b4 uniform Q1.5 / dr Q1.4 / stream Q1.5",
                &deep,
                &deep.descriptor(),
                &dconfig,
                &grid_input([4, 1, 16, 16], 8),
                5,
                capsacc.latency_us(&archstats::deep_caps(1)),
            ),
        ]
    };

    // Search-time acceleration: Algorithm 1 end to end, accelerated vs
    // the naive evaluator, with the exactness contract re-verified at
    // thread counts 1/2/7.
    qcn_telemetry::info!("bench_report", "timing the wordlength search (Algorithm 1)");
    let search = search_entries(false)
        .iter()
        .map(|e| -> Row {
            let stats = &e.report.stats;
            vec![
                ("name", string(e.name)),
                ("scheme", string(&e.scheme.to_string())),
                ("naive_ms", num(e.naive_ms, 1)),
                ("accel_ms", num(e.accel_ms, 1)),
                ("speedup", num(e.naive_ms / e.accel_ms, 2)),
                ("naive_evals", e.naive_evals.to_string()),
                ("accel_evals", stats.evaluations.to_string()),
                ("memo_hits", stats.memo_hits.to_string()),
                ("prefix_hits", stats.prefix_hits.to_string()),
                ("stages_skipped", stats.stages_skipped.to_string()),
                (
                    "early_exits",
                    (stats.early_accepts + stats.early_rejects).to_string(),
                ),
                ("identical_selection", e.identical_selection.to_string()),
                ("fallbacks", stats.fallbacks.to_string()),
            ]
        })
        .collect();

    let json = report(
        &[
            ("harness", string("bench_report (minimum of 15 samples)")),
            ("threads", threads.to_string()),
            ("nproc", nproc.to_string()),
        ],
        &[
            ("kernels", kernels),
            ("fused_quantization", fused),
            ("integer_inference", integer),
            ("search", search),
        ],
    );
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("{json}");
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_writer_places_commas_escapes_and_rounds() {
        let stages = [("L1", num(12.26, 1)), ("L\"2", num(0.04, 1))];
        let rows: Vec<Row> = vec![
            vec![
                ("name", string(r#"a "q" \ b"#)),
                ("ms", num(0.123456, 4)),
                ("bit_exact", true.to_string()),
                ("stage_us", object(&stages)),
            ],
            vec![("name", string("z")), ("stage_us", object::<&str>(&[]))],
        ];
        let text = report(
            &[("threads", 1.to_string()), ("nproc", 2.to_string())],
            &[("rows", rows), ("more", vec![vec![("n", 3.to_string())]])],
        );
        let want = concat!(
            "{\n",
            "  \"threads\": 1,\n",
            "  \"nproc\": 2,\n",
            "  \"rows\": [\n",
            "    { \"name\": \"a \\\"q\\\" \\\\ b\", \"ms\": 0.1235, \"bit_exact\": true, ",
            "\"stage_us\": { \"L1\": 12.3, \"L\\\"2\": 0.0 } },\n",
            "    { \"name\": \"z\", \"stage_us\": {  } }\n",
            "  ],\n",
            "  \"more\": [\n    { \"n\": 3 }\n  ]\n",
            "}\n",
        );
        assert_eq!(text, want);
    }
}
