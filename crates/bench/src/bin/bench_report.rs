//! Machine-readable kernel benchmark report (minimum of 15 samples).
//!
//! Times the tensor hot paths (matmul / bmm / conv2d / capsule votes /
//! dynamic routing) with the serial fallback (`with_threads(1)`) and the
//! default thread pool, plus the seed's naive triple-loop matmul as the
//! pre-optimisation reference, and writes the medians to a JSON file
//! (`BENCH_kernels.json` by default, or the path given as the first
//! argument). The checked-in copy of that file documents the measured
//! speedups quoted in `docs/performance.md`.

use qcapsnets::export::pack_model;
use qcapsnets::{run as run_framework, FrameworkConfig, Outcome, RunReport, SearchAccel};
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
use qcn_intinfer::{IntModel, UnitMode};
use qcn_router::{Router, RouterConfig};
use qcn_serve::{
    Client, FakeQuantEngine, IntEngine, ModelRegistry, ServeConfig, ServeEngine, Server,
    SocketServer,
};
use qcn_telemetry::MetricValue;
use qcn_tensor::conv::{conv2d, conv2d_fused, Conv2dSpec};
use qcn_tensor::parallel::{current_threads, with_threads};
use qcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// The seed's matmul (straight triple loop with the `a == 0.0` skip) —
/// the reference the blocked kernel is compared against.
fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for l in 0..k {
            let av = ad[i * k + l];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * bd[l * n + j];
            }
        }
    }
    Tensor::from_vec(out, [m, n]).expect("naive matmul output")
}

struct Entry {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
}

/// A fused-epilogue quantization comparison: the same kernel + rounding
/// work, once as compute-then-sequential-round (the pre-fusion
/// composition: one extra memory pass, per-element scheme dispatch and
/// constant recomputation), once with the rounding fused into the kernel's
/// writeback epilogue. Both paths produce bit-identical results for
/// deterministic schemes (see `tests/fused_quantization.rs`).
struct FusedEntry {
    name: &'static str,
    round_after_ms: f64,
    fused_ms: f64,
}

/// A full-network comparison of the three execution paths for one packed
/// model: the fake-quant f32 reference, the integer engine with
/// float-exact units (bit-identical by construction — `bit_exact` records
/// the measured check), and the pure-integer engine. `capsacc_latency_us`
/// is the CapsAcc analytical latency of the architecture from the
/// hardware model, tying the software timings to the accelerator the
/// wordlength blob targets. `stage_us` is the float-exact engine's mean
/// time per call of each stage (L1, L2, L3, ...), read from the stage spans
/// production exports (`qcn_stage_duration_us`); empty when telemetry is
/// off.
struct IntInferEntry {
    name: String,
    fake_quant_ms: f64,
    float_exact_ms: f64,
    integer_ms: f64,
    bit_exact: bool,
    capsacc_latency_us: f64,
    stage_us: Vec<(String, f64)>,
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

/// Times one model through the three paths under `config` (RTN so timing
/// excludes RNG cost differences) on an on-grid input batch.
fn int_infer_entry<M: CapsNet>(
    name: String,
    model: &M,
    desc: &qcn_capsnet::descriptor::ModelDesc,
    config: &ModelQuant,
    x: &Tensor,
    in_frac: u8,
    capsacc_latency_us: f64,
) -> IntInferEntry {
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
    let stage_us = engine
        .group_names()
        .into_iter()
        .filter_map(|stage| {
            let (count, sum) = totals(&after, stage)?;
            let (c0, s0) = totals(&before, stage).unwrap_or((0, 0.0));
            Some((stage.to_string(), (sum - s0) / (count - c0).max(1) as f64))
        })
        .collect();
    IntInferEntry {
        name,
        fake_quant_ms,
        float_exact_ms,
        integer_ms,
        bit_exact: got.data() == want.data(),
        capsacc_latency_us,
        stage_us,
    }
}

/// One serving measurement: the dynamic-batching server at a fixed
/// `max_batch`, driven to saturation by a pre-filled queue.
struct ServingPoint {
    max_batch: usize,
    rps: f64,
    mean_batch: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

/// Serving throughput of one engine: the sequential one-request-at-a-time
/// loop as the baseline, then the server across batch sizes.
struct ServingEntry {
    engine: &'static str,
    single_loop_rps: f64,
    points: Vec<ServingPoint>,
}

/// In-process vs socket round-trip throughput for one engine behind the
/// same server: `in_process_rps` pipelines through `Server::submit`
/// directly, `socket_pipelined_rps` drives the same requests through the
/// TCP front-end on one pipelined connection, and `socket_sync_rps` is the
/// worst case — one request on the wire at a time, so every request pays a
/// full network round-trip of latency. `wire_bytes_per_request` is the
/// measured protocol cost (request + response frames) per request.
struct ServingNetEntry {
    engine: &'static str,
    requests: usize,
    in_process_rps: f64,
    socket_pipelined_rps: f64,
    socket_sync_rps: f64,
    wire_bytes_per_request: f64,
}

/// The routing tier's overhead: the same pipelined request stream against
/// one replica directly vs through a `qcn_router::Router` fronting the
/// fleet. `routed_rps / direct_rps` is the cost of the extra hop (id
/// rewriting, balancing, admission control); the acceptance bar for the
/// tier is ≥ 0.9.
struct RouterBenchEntry {
    engine: &'static str,
    requests: usize,
    replicas: usize,
    direct_rps: f64,
    routed_rps: f64,
}

/// One end-to-end Algorithm 1 timing: the full framework run (binary
/// search + Eq. 6 + layer-wise descent + DR specialisation) with the
/// search accelerations on, against `SearchAccel::naive()` — the pre-PR
/// evaluator that re-ran every candidate from the input layer over the
/// whole dataset. `identical_selection` records the exactness contract:
/// the selected configs and reported accuracies match the naive run
/// bit-for-bit at every thread count in {1, 2, 7}.
struct SearchEntry {
    name: &'static str,
    scheme: RoundingScheme,
    naive_ms: f64,
    accel_ms: f64,
    naive_evals: usize,
    accel_evals: usize,
    memo_hits: usize,
    prefix_hits: usize,
    stages_skipped: usize,
    early_exits: usize,
    identical_selection: bool,
}

/// Selection identity check: same Algorithm 1 path, bit-identical configs
/// and reported accuracies.
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

fn search_entry<M: CapsNet + Sync>(
    name: &'static str,
    model: &M,
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
    // Full runs take hundreds of milliseconds, so take the min over a few
    // passes (rather than min-of-15) to shed scheduler noise.
    let reps = 3;
    let mut naive_ms = f64::INFINITY;
    let mut naive = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = run_framework(model, ds, &naive_config);
        naive_ms = naive_ms.min(start.elapsed().as_secs_f64() * 1e3);
        naive = Some(r);
    }
    let naive = naive.expect("reps >= 1");
    let mut accel_ms = f64::INFINITY;
    let mut accel = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = run_framework(model, ds, &accel_config);
        accel_ms = accel_ms.min(start.elapsed().as_secs_f64() * 1e3);
        accel = Some(r);
    }
    let accel = accel.expect("reps >= 1");
    // The exactness contract, re-checked under forced pools: serial, even
    // and odd splits all reproduce the naive selection bit-for-bit.
    let identical = same_selection(&naive, &accel)
        && [1usize, 2, 7].iter().all(|&t| {
            let r = with_threads(t, || run_framework(model, ds, &accel_config));
            same_selection(&naive, &r)
        });
    let stats = accel.stats;
    SearchEntry {
        name,
        scheme,
        naive_ms,
        accel_ms,
        naive_evals: naive.evaluations,
        accel_evals: accel.evaluations,
        memo_hits: stats.memo_hits,
        prefix_hits: stats.prefix_hits,
        stages_skipped: stats.stages_skipped,
        early_exits: stats.early_accepts + stats.early_rejects,
        identical_selection: identical,
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

/// The `search` bench section: Algorithm 1 end to end, accelerated vs
/// naive. `smoke` restricts to one ShallowCaps-S / RTN entry so CI can
/// assert the exactness contract in seconds.
fn search_entries(smoke: bool) -> Vec<SearchEntry> {
    let mut entries = Vec::new();
    let (shallow, sds) = trained_shallow_s();
    let sbase = search_base(&shallow);
    let schemes: &[RoundingScheme] = if smoke {
        &[RoundingScheme::RoundToNearest]
    } else {
        &RoundingScheme::EXTENDED
    };
    for &scheme in schemes {
        entries.push(search_entry(
            "ShallowCaps-S Algorithm 1",
            &shallow,
            &sds,
            &sbase,
            scheme,
        ));
    }
    if !smoke {
        let (deep, dds) = trained_deep_s();
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

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Loads `name\tms` lines produced by `scripts/bench_seed_baseline.sh`
/// (the seed commit's kernels timed with the same harness). Returns an
/// empty list when the file is absent — the report then simply omits the
/// seed columns. Because the host's absolute speed drifts between runs,
/// regenerate the TSV in the same session as the report.
fn load_seed_tsv(path: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let (name, ms) = line.rsplit_once('\t')?;
            Some((name.to_string(), ms.trim().parse().ok()?))
        })
        .collect()
}

fn main() {
    // Progress lines go through the leveled log facade at Info; the
    // default level is Warn, so raise it here — QCN_LOG still overrides
    // in both directions.
    qcn_telemetry::set_default_level(qcn_telemetry::Level::Info);
    if std::env::args().nth(1).as_deref() == Some("--search-smoke") {
        qcn_telemetry::info!("bench_report", "search smoke (ShallowCaps-S, RTN only)");
        for e in search_entries(true) {
            println!(
                "{} [{}]: naive {:.0} ms / {} evals, accel {:.0} ms / {} evals \
                 ({:.2}x), identical_selection={}",
                e.name,
                e.scheme,
                e.naive_ms,
                e.naive_evals,
                e.accel_ms,
                e.accel_evals,
                e.naive_ms / e.accel_ms,
                e.identical_selection
            );
            assert!(
                e.identical_selection,
                "accelerated search diverged from the naive selection"
            );
        }
        return;
    }
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let seed_tsv_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "target/seed-baseline/seed_kernels.tsv".to_string());
    let seed_ms = load_seed_tsv(&seed_tsv_path);
    let threads = current_threads();
    qcn_telemetry::info!(
        "bench_report",
        "timing kernels with {threads} thread(s) available"
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

    let naive_ms = measure(|| {
        black_box(matmul_naive(black_box(&ma), black_box(&mb)));
    });

    let pair = |f: &dyn Fn()| {
        let serial = measure(|| with_threads(1, f));
        let parallel = measure(f);
        (serial, parallel)
    };
    let entries: Vec<Entry> = vec![
        {
            let (s, p) = pair(&|| {
                black_box(black_box(&ma).matmul(black_box(&mb)));
            });
            Entry {
                name: "matmul 256x256x256 blocked",
                serial_ms: s,
                parallel_ms: p,
            }
        },
        {
            let (s, p) = pair(&|| {
                black_box(black_box(&ba).bmm(black_box(&bb)));
            });
            Entry {
                name: "bmm 16x64x64x64",
                serial_ms: s,
                parallel_ms: p,
            }
        },
        {
            let (s, p) = pair(&|| {
                black_box(conv2d(
                    black_box(&conv_in),
                    black_box(&conv_w),
                    Some(&conv_b),
                    spec,
                ));
            });
            Entry {
                name: "conv2d 8x16x16x16 -> 32ch 3x3",
                serial_ms: s,
                parallel_ms: p,
            }
        },
        {
            let (s, p) = pair(&|| {
                black_box(caps_votes_infer(black_box(&votes_in), black_box(&votes_w)));
            });
            Entry {
                name: "caps_votes 16x128x4 -> 10x8",
                serial_ms: s,
                parallel_ms: p,
            }
        },
        {
            let (s, p) = pair(&|| {
                let mut ctx = QuantCtx::new(RoundingScheme::Truncation, 0);
                black_box(layer.infer(black_box(&caps_in), &fp, &mut ctx));
            });
            Entry {
                name: "caps_fc routing fp32 (3 iters)",
                serial_ms: s,
                parallel_ms: p,
            }
        },
        {
            let lq = LayerQuant {
                weight_frac: Some(8),
                act_frac: Some(6),
                dr_frac: Some(5),
                ..LayerQuant::full_precision()
            };
            let (s, p) = pair(&|| {
                let mut ctx = QuantCtx::new(RoundingScheme::Stochastic, 0);
                black_box(layer.infer(black_box(&caps_in), &lq, &mut ctx));
            });
            Entry {
                name: "caps_fc routing SR a6/dr5 (3 iters)",
                serial_ms: s,
                parallel_ms: p,
            }
        },
    ];

    // Fused-epilogue rounding vs the compute-then-round composition, at the
    // default thread count. The round-after baseline rounds element-by-
    // element with `RoundingScheme::round` — the sequential second pass the
    // quantized inference paths used before the epilogues existed.
    let q6 = QFormat::with_frac(6);
    let round_after = |t: &mut Tensor, scheme: RoundingScheme| {
        let mut rng = StdRng::seed_from_u64(1);
        for v in t.data_mut() {
            *v = scheme.round(*v, q6, &mut rng);
        }
    };
    let fused_entries: Vec<FusedEntry> =
        [RoundingScheme::RoundToNearest, RoundingScheme::Stochastic]
            .iter()
            .flat_map(|&scheme| {
                let fq = Quantizer::new(q6, scheme).fused(0x5EED);
                let conv_ra = measure(|| {
                    let mut out =
                        conv2d(black_box(&conv_in), black_box(&conv_w), Some(&conv_b), spec);
                    round_after(&mut out, scheme);
                    black_box(out);
                });
                let conv_fused = measure(|| {
                    let epi = |off: usize, row: &mut [f32]| fq.apply(off, row);
                    black_box(conv2d_fused(
                        black_box(&conv_in),
                        black_box(&conv_w),
                        Some(&conv_b),
                        spec,
                        Some(&epi),
                    ));
                });
                let votes_ra = measure(|| {
                    let mut out = caps_votes_infer(black_box(&votes_in), black_box(&votes_w));
                    round_after(&mut out, scheme);
                    black_box(out);
                });
                let votes_fused = measure(|| {
                    black_box(caps_votes_infer_fused(
                        black_box(&votes_in),
                        black_box(&votes_w),
                        Some(&fq),
                    ));
                });
                [
                    FusedEntry {
                        name: match scheme {
                            RoundingScheme::RoundToNearest => {
                                "conv2d 8x16x16x16 -> 32ch 3x3 + Qa RTN"
                            }
                            _ => "conv2d 8x16x16x16 -> 32ch 3x3 + Qa SR",
                        },
                        round_after_ms: conv_ra,
                        fused_ms: conv_fused,
                    },
                    FusedEntry {
                        name: match scheme {
                            RoundingScheme::RoundToNearest => {
                                "caps_votes 16x128x4 -> 10x8 + Q_DR RTN"
                            }
                            _ => "caps_votes 16x128x4 -> 10x8 + Q_DR SR",
                        },
                        round_after_ms: votes_ra,
                        fused_ms: votes_fused,
                    },
                ]
            })
            .collect();

    // Whole-network integer inference vs the fake-quant reference, on the
    // CPU-scale model variants the integration suites train. Inputs are
    // snapped to the Q1.5 deployment grid so the two paths see identical
    // operands.
    let grid_input = |dims: [usize; 4], seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Tensor::rand_uniform(dims, 0.0, 1.0, &mut rng);
        for v in t.data_mut() {
            *v = (*v * 32.0).round() / 32.0;
        }
        t
    };
    let int_entries: Vec<IntInferEntry> = {
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
        vec![
            int_infer_entry(
                "ShallowCaps-S b1 uniform Q1.5 / dr Q1.4".to_string(),
                &shallow,
                &shallow.descriptor(),
                &sconfig,
                &grid_input([1, 1, 16, 16], 7),
                5,
                capsacc.latency_us(&archstats::shallow_caps()),
            ),
            int_infer_entry(
                "ShallowCaps-S b8 uniform Q1.5 / dr Q1.4".to_string(),
                &shallow,
                &shallow.descriptor(),
                &sconfig,
                &grid_input([8, 1, 16, 16], 7),
                5,
                capsacc.latency_us(&archstats::shallow_caps()),
            ),
            int_infer_entry(
                "DeepCaps-S b4 uniform Q1.5 / dr Q1.4 / stream Q1.5".to_string(),
                &deep,
                &deep.descriptor(),
                &dconfig,
                &grid_input([4, 1, 16, 16], 8),
                5,
                capsacc.latency_us(&archstats::deep_caps(1)),
            ),
        ]
    };

    // Serving layer: batched throughput of the dynamic-batching server vs
    // the sequential single-sample loop, on both warm engines. The queue
    // is pre-filled with every request so the scheduler always has a full
    // window to batch from — the steady-state saturated regime.
    qcn_telemetry::info!("bench_report", "timing the serving layer");
    let serving_entries: Vec<ServingEntry> = {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
        let mut config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
        for lq in &mut config.layers {
            lq.dr_frac = Some(4);
        }
        let int_model = IntModel::load(&model.descriptor(), &pack_model(&model, &config))
            .expect("config fully quantized");
        let requests: Vec<Tensor> = (0..192)
            .map(|i| {
                let mut x = grid_input([1, 1, 16, 16], 100 + i as u64);
                x = Tensor::from_vec(x.data().to_vec(), [1, 16, 16]).unwrap();
                x
            })
            .collect();

        let run = |register: &dyn Fn(&mut ModelRegistry), max_batch: usize| -> ServingPoint {
            let mut registry = ModelRegistry::new();
            register(&mut registry);
            let server = Server::start(
                registry,
                ServeConfig {
                    max_batch,
                    queue_capacity: requests.len(),
                    batch_window: Duration::from_millis(2),
                    request_timeout: None,
                    // One worker: the kernels already parallelize across
                    // all cores internally, so a second concurrent batch
                    // would only thrash the same cores.
                    workers: 1,
                    shed_watermark: None,
                },
            );
            // Best of nine saturated passes (first doubles as warm-up):
            // the true difference between the batched and sequential paths
            // is small on a single-core host, so the min-estimator needs
            // enough samples to get under the machine's noise floor.
            let mut best_rps = 0.0f64;
            for _ in 0..9 {
                let start = Instant::now();
                let pending: Vec<_> = requests
                    .iter()
                    .map(|x| {
                        server
                            .submit("m", x.clone())
                            .expect("queue sized for the run")
                    })
                    .collect();
                for p in pending {
                    p.wait().expect("serving bench request");
                }
                let secs = start.elapsed().as_secs_f64();
                best_rps = best_rps.max(requests.len() as f64 / secs);
            }
            let snap = server.shutdown();
            ServingPoint {
                max_batch,
                rps: best_rps,
                mean_batch: snap.mean_batch,
                p50_us: snap.latency_p50_us,
                p95_us: snap.latency_p95_us,
                p99_us: snap.latency_p99_us,
            }
        };
        let loop_rps = |engine: &dyn ServeEngine| {
            let mut best = 0.0f64;
            for _ in 0..9 {
                let start = Instant::now();
                for x in &requests {
                    // The loop also has to lift each request to the
                    // engine's batch shape — the same per-request clone
                    // the server pays inside `submit`.
                    let single = Tensor::from_vec(x.data().to_vec(), [1, 1, 16, 16]).unwrap();
                    black_box(engine.infer_batch(&single));
                }
                best = best.max(requests.len() as f64 / start.elapsed().as_secs_f64());
            }
            best
        };
        let fq_baseline = loop_rps(&FakeQuantEngine::new(&model, config.clone(), [1, 16, 16]));
        let int_baseline = loop_rps(&IntEngine::new(
            int_model.clone(),
            5,
            UnitMode::FloatExact,
            [1, 16, 16],
        ));
        let batches = [1usize, 4, 16, 64];
        vec![
            ServingEntry {
                engine: "fake_quant",
                single_loop_rps: fq_baseline,
                points: batches
                    .iter()
                    .map(|&b| {
                        run(
                            &|r| {
                                r.register(
                                    "m",
                                    FakeQuantEngine::new(&model, config.clone(), [1, 16, 16]),
                                )
                                .unwrap();
                            },
                            b,
                        )
                    })
                    .collect(),
            },
            ServingEntry {
                engine: "integer_float_exact",
                single_loop_rps: int_baseline,
                points: batches
                    .iter()
                    .map(|&b| {
                        run(
                            &|r| {
                                r.register(
                                    "m",
                                    IntEngine::new(
                                        int_model.clone(),
                                        5,
                                        UnitMode::FloatExact,
                                        [1, 16, 16],
                                    ),
                                )
                                .unwrap();
                            },
                            b,
                        )
                    })
                    .collect(),
            },
        ]
    };

    // Socket front-end: the same saturated request stream through
    // `Server::submit` directly vs over TCP (one pipelined connection, and
    // the sync one-at-a-time worst case) — what the wire layer costs.
    qcn_telemetry::info!("bench_report", "timing the socket front-end");
    let serving_net_entries: Vec<ServingNetEntry> = {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
        let mut config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
        for lq in &mut config.layers {
            lq.dr_frac = Some(4);
        }
        let int_model = IntModel::load(&model.descriptor(), &pack_model(&model, &config))
            .expect("config fully quantized");
        let requests: Vec<Tensor> = (0..192)
            .map(|i| {
                let x = grid_input([1, 1, 16, 16], 100 + i as u64);
                Tensor::from_vec(x.data().to_vec(), [1, 16, 16]).unwrap()
            })
            .collect();
        let passes = 5;

        let run = |register: &dyn Fn(&mut ModelRegistry)| -> ServingNetEntry {
            let mut registry = ModelRegistry::new();
            register(&mut registry);
            let server = std::sync::Arc::new(Server::start(
                registry,
                ServeConfig {
                    max_batch: 8,
                    queue_capacity: requests.len(),
                    batch_window: Duration::from_millis(2),
                    request_timeout: None,
                    workers: 1,
                    shed_watermark: None,
                },
            ));
            let net = SocketServer::bind(std::sync::Arc::clone(&server), "127.0.0.1:0")
                .expect("bind bench front-end");

            let mut in_process_rps = 0.0f64;
            for _ in 0..passes {
                let start = Instant::now();
                let pending: Vec<_> = requests
                    .iter()
                    .map(|x| server.submit("m", x.clone()).expect("queue sized"))
                    .collect();
                for p in pending {
                    p.wait().expect("in-process bench request");
                }
                in_process_rps =
                    in_process_rps.max(requests.len() as f64 / start.elapsed().as_secs_f64());
            }

            let mut client = Client::connect(net.local_addr()).expect("connect bench client");
            let mut socket_pipelined_rps = 0.0f64;
            let mut socket_requests = 0u64;
            for _ in 0..passes {
                let start = Instant::now();
                for x in &requests {
                    client.send("m", x).expect("pipelined send");
                }
                for _ in &requests {
                    client
                        .recv()
                        .expect("pipelined recv")
                        .result
                        .expect("remote inference");
                }
                socket_pipelined_rps =
                    socket_pipelined_rps.max(requests.len() as f64 / start.elapsed().as_secs_f64());
                socket_requests += requests.len() as u64;
            }
            let mut socket_sync_rps = 0.0f64;
            for _ in 0..passes {
                let start = Instant::now();
                for x in &requests {
                    client.infer("m", x).expect("sync round-trip");
                }
                socket_sync_rps =
                    socket_sync_rps.max(requests.len() as f64 / start.elapsed().as_secs_f64());
                socket_requests += requests.len() as u64;
            }
            drop(client);
            let snap = net.shutdown();
            ServingNetEntry {
                engine: "",
                requests: requests.len(),
                in_process_rps,
                socket_pipelined_rps,
                socket_sync_rps,
                wire_bytes_per_request: (snap.bytes_in + snap.bytes_out) as f64
                    / socket_requests as f64,
            }
        };
        vec![
            ServingNetEntry {
                engine: "fake_quant",
                ..run(&|r| {
                    r.register(
                        "m",
                        FakeQuantEngine::new(&model, config.clone(), [1, 16, 16]),
                    )
                    .unwrap();
                })
            },
            ServingNetEntry {
                engine: "integer_float_exact",
                ..run(&|r| {
                    r.register(
                        "m",
                        IntEngine::new(int_model.clone(), 5, UnitMode::FloatExact, [1, 16, 16]),
                    )
                    .unwrap();
                })
            },
        ]
    };

    // Routing tier: the identical pipelined stream against one replica
    // directly vs through the router — the price of the extra hop.
    qcn_telemetry::info!("bench_report", "timing the routing tier");
    let router_entries: Vec<RouterBenchEntry> = {
        let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
        let mut config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
        for lq in &mut config.layers {
            lq.dr_frac = Some(4);
        }
        let int_model = IntModel::load(&model.descriptor(), &pack_model(&model, &config))
            .expect("config fully quantized");
        let requests: Vec<Tensor> = (0..192)
            .map(|i| {
                let x = grid_input([1, 1, 16, 16], 100 + i as u64);
                Tensor::from_vec(x.data().to_vec(), [1, 16, 16]).unwrap()
            })
            .collect();
        let passes = 5;
        const REPLICAS: usize = 2;

        let run = |register: &dyn Fn(&mut ModelRegistry)| -> RouterBenchEntry {
            let fleet: Vec<SocketServer> = (0..REPLICAS)
                .map(|_| {
                    let mut registry = ModelRegistry::new();
                    register(&mut registry);
                    let server = std::sync::Arc::new(Server::start(
                        registry,
                        ServeConfig {
                            max_batch: 8,
                            queue_capacity: requests.len(),
                            batch_window: Duration::from_millis(2),
                            request_timeout: None,
                            workers: 1,
                            shed_watermark: None,
                        },
                    ));
                    SocketServer::bind(server, "127.0.0.1:0").expect("bind bench replica")
                })
                .collect();
            let mut cfg = RouterConfig::new(fleet.iter().map(|r| r.local_addr()));
            cfg.max_inflight = requests.len();
            let router = Router::bind(cfg, "127.0.0.1:0").expect("bind bench router");

            let pipelined = |client: &mut Client| -> f64 {
                let mut best = 0.0f64;
                for _ in 0..passes {
                    let start = Instant::now();
                    for x in &requests {
                        client.send("m", x).expect("pipelined send");
                    }
                    for _ in &requests {
                        client
                            .recv()
                            .expect("pipelined recv")
                            .result
                            .expect("remote inference");
                    }
                    best = best.max(requests.len() as f64 / start.elapsed().as_secs_f64());
                }
                best
            };
            let mut direct = Client::connect(fleet[0].local_addr()).expect("connect direct");
            let direct_rps = pipelined(&mut direct);
            drop(direct);
            let mut routed = Client::connect(router.local_addr()).expect("connect routed");
            let routed_rps = pipelined(&mut routed);
            drop(routed);

            let snap = router.shutdown();
            assert_eq!(snap.failed, 0, "bench traffic must not fail over");
            for replica in fleet {
                replica.shutdown();
            }
            RouterBenchEntry {
                engine: "",
                requests: requests.len(),
                replicas: REPLICAS,
                direct_rps,
                routed_rps,
            }
        };
        vec![
            RouterBenchEntry {
                engine: "fake_quant",
                ..run(&|r| {
                    r.register(
                        "m",
                        FakeQuantEngine::new(&model, config.clone(), [1, 16, 16]),
                    )
                    .unwrap();
                })
            },
            RouterBenchEntry {
                engine: "integer_float_exact",
                ..run(&|r| {
                    r.register(
                        "m",
                        IntEngine::new(int_model.clone(), 5, UnitMode::FloatExact, [1, 16, 16]),
                    )
                    .unwrap();
                })
            },
        ]
    };

    // Search-time acceleration: Algorithm 1 end to end, accelerated vs
    // the naive evaluator, with the exactness contract re-verified at
    // thread counts 1/2/7.
    qcn_telemetry::info!("bench_report", "timing the wordlength search (Algorithm 1)");
    let search = search_entries(false);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"harness\": \"bench_report (minimum of 15 samples)\",\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"seed_reference\": {\n");
    json.push_str(&format!(
        "    \"matmul 256x256x256 naive (seed algorithm)\": {{ \"ms\": {naive_ms:.4} }}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"kernels\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let speedup = e.serial_ms / e.parallel_ms;
        let seed = seed_ms
            .iter()
            .find(|(name, _)| name == e.name)
            .map(|&(_, ms)| {
                format!(
                    ", \"seed_ms\": {ms:.4}, \"speedup_vs_seed\": {:.2}",
                    ms / e.parallel_ms.min(e.serial_ms)
                )
            })
            .unwrap_or_default();
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"serial_ms\": {:.4}, \"parallel_ms\": {:.4}, \"speedup\": {:.2}{seed} }}{}\n",
            json_escape(e.name),
            e.serial_ms,
            e.parallel_ms,
            speedup,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"fused_quantization\": [\n");
    for (i, e) in fused_entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"round_after_ms\": {:.4}, \"fused_ms\": {:.4}, \"speedup\": {:.2} }}{}\n",
            json_escape(e.name),
            e.round_after_ms,
            e.fused_ms,
            e.round_after_ms / e.fused_ms,
            if i + 1 < fused_entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"integer_inference\": [\n");
    for (i, e) in int_entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"fake_quant_ms\": {:.4}, \"float_exact_ms\": {:.4}, \"integer_ms\": {:.4}, \"bit_exact\": {}, \"capsacc_latency_us\": {:.2}, \"stage_us\": {{ {} }} }}{}\n",
            json_escape(&e.name),
            e.fake_quant_ms,
            e.float_exact_ms,
            e.integer_ms,
            e.bit_exact,
            e.capsacc_latency_us,
            e.stage_us
                .iter()
                .map(|(stage, us)| format!("\"{}\": {us:.1}", json_escape(stage)))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < int_entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"serving\": [\n");
    for (i, e) in serving_entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"engine\": \"{}\", \"single_loop_rps\": {:.1}, \"points\": [\n",
            e.engine, e.single_loop_rps
        ));
        for (j, p) in e.points.iter().enumerate() {
            json.push_str(&format!(
                "      {{ \"max_batch\": {}, \"rps\": {:.1}, \"mean_batch\": {:.2}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {} }}{}\n",
                p.max_batch,
                p.rps,
                p.mean_batch,
                p.p50_us,
                p.p95_us,
                p.p99_us,
                if j + 1 < e.points.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    ] }}{}\n",
            if i + 1 < serving_entries.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"serving_net\": [\n");
    for (i, e) in serving_net_entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"engine\": \"{}\", \"requests\": {}, \"in_process_rps\": {:.1}, \
             \"socket_pipelined_rps\": {:.1}, \"socket_sync_rps\": {:.1}, \
             \"socket_vs_in_process\": {:.3}, \"wire_bytes_per_request\": {:.1} }}{}\n",
            e.engine,
            e.requests,
            e.in_process_rps,
            e.socket_pipelined_rps,
            e.socket_sync_rps,
            e.socket_pipelined_rps / e.in_process_rps,
            e.wire_bytes_per_request,
            if i + 1 < serving_net_entries.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"router\": [\n");
    for (i, e) in router_entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"engine\": \"{}\", \"requests\": {}, \"replicas\": {}, \
             \"direct_rps\": {:.1}, \"routed_rps\": {:.1}, \"routed_vs_direct\": {:.3} }}{}\n",
            e.engine,
            e.requests,
            e.replicas,
            e.direct_rps,
            e.routed_rps,
            e.routed_rps / e.direct_rps,
            if i + 1 < router_entries.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"search\": [\n");
    for (i, e) in search.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"scheme\": \"{}\", \"naive_ms\": {:.1}, \"accel_ms\": {:.1}, \"speedup\": {:.2}, \"naive_evals\": {}, \"accel_evals\": {}, \"memo_hits\": {}, \"prefix_hits\": {}, \"stages_skipped\": {}, \"early_exits\": {}, \"identical_selection\": {} }}{}\n",
            json_escape(e.name),
            e.scheme,
            e.naive_ms,
            e.accel_ms,
            e.naive_ms / e.accel_ms,
            e.naive_evals,
            e.accel_evals,
            e.memo_hits,
            e.prefix_hits,
            e.stages_skipped,
            e.early_exits,
            e.identical_selection,
            if i + 1 < search.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("{json}");
    println!("wrote {out_path}");
}
