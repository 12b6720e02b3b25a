//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path qcnbench/Cargo.toml -- \
//!     --workload serve_int_rtn --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads: `serve_int_rtn`, `search_lib` (see
//! `qcnbench/README.md`). Prints a run manifest line, then as the last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Exits non-zero when any output differs from its oracle.

mod calib;
mod catalog;
mod search;
mod serve;
mod stats;

use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;

/// What one pass of a workload measured.
pub struct Pass {
    /// Every end-to-end metric but `rss_peak_mb`, which `main` reads.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<(String, f64)>,
    pub attempted: u64,
    /// Operations that failed, were refused, or differed from the oracle.
    pub failed: u64,
    pub mismatched: u64,
    /// False when the open-loop generator fell behind its schedule.
    pub valid: bool,
    /// Median host dilation over the pass (see `calib`).
    pub dilation: f64,
    /// Extra manifest fields, values already rendered as JSON.
    pub manifest: Vec<(&'static str, String)>,
    /// Request spans of a traced serving pass, as TSV.
    pub spans: String,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            e2e: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatched: 0,
            valid: true,
            dilation: 1.0,
            manifest: Vec::new(),
            spans: String::new(),
        }
    }

    fn e2e(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("pass lacks end-to-end metric {name}"))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            catalog::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40.0),
        trace,
    })
}

/// One pass of the workload. A traced run makes two passes, untraced then
/// traced, each for half of `--seconds`, so it ends about when an
/// untraced run would.
fn run_pass(args: &Args, traced: bool) -> Pass {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    match args.workload.as_str() {
        "serve_int_rtn" => serve::run(args.seed, seconds, traced),
        "search_lib" => search::run_pass(args.seed, seconds, traced),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Peak resident memory of this process, MB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// A metric value as JSON: every digit as measured; never NaN or infinite
/// (a latency percentile that only failures reach prints as 1e9 ms).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1000000000".to_string()
    }
}

fn manifest_line(args: &Args, pass: &Pass) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s =
        format!(
        "{{\"manifest\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"commit\": \"{}\", \"profile\": \"{}\", \"valid\": {}, \
         \"host_dilation\": {}, \"calibration_reference_ms\": {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        pass.valid,
        pass.dilation,
        calib::REFERENCE_MS,
    );
    for (k, v) in &pass.manifest {
        let _ = write!(s, ", \"{k}\": {v}");
    }
    s.push_str("}}");
    s
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = catalog::unit(name).unwrap_or_else(|| panic!("{name} is not in the catalog"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qcnbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Kernel threads are part of the workload definition: one per serving
    // replica (pool dispatch costs more than it saves at batch ≤ 8), two
    // for the search.
    let threads = if args.workload == "search_lib" {
        search::KERNEL_THREADS
    } else {
        1
    };
    std::env::set_var("QCN_NUM_THREADS", threads.to_string());

    let untraced = run_pass(&args, false);
    let untraced_rss = rss_peak_mb();
    let (pass, metrics, attempted, failed, mismatched) = if args.trace {
        let traced = run_pass(&args, true);
        let traced_rss = rss_peak_mb();
        let mut metrics = catalog::per_layer_zeroed();
        let mut set = |name: &str, v: f64| {
            let slot = metrics
                .iter_mut()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalog"));
            slot.1 = v;
        };
        set("host.dilation", traced.dilation);
        for (name, v) in &traced.layers {
            set(name, *v);
        }
        for &(name, _) in catalog::END_TO_END {
            let delta = if name == "rss_peak_mb" {
                traced_rss - untraced_rss
            } else {
                traced.e2e(name) - untraced.e2e(name)
            };
            set(&format!("trace_overhead.{name}"), delta);
        }
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;
        set("error_rate", failed as f64 / attempted.max(1) as f64);
        if !traced.spans.is_empty() {
            let dir = std::path::Path::new(".bench_trace");
            let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &traced.spans))
            {
                eprintln!("qcnbench: could not write {}: {e}", path.display());
            }
        }
        let mismatched = untraced.mismatched + traced.mismatched;
        (traced, metrics, attempted, failed, mismatched)
    } else {
        let mut metrics: Vec<(String, f64)> = untraced
            .e2e
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect();
        metrics.push(("rss_peak_mb".into(), untraced_rss));
        let (a, f, m) = (untraced.attempted, untraced.failed, untraced.mismatched);
        (untraced, metrics, a, f, m)
    };
    if !pass.valid {
        eprintln!(
            "qcnbench: INVALID run — the open-loop generator fell behind its schedule \
             (see gen_late_ms_p99 / gen_backlog_end in the manifest)"
        );
    }
    println!("{}", manifest_line(&args, &pass));
    let correct = mismatched == 0;
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("qcnbench: {mismatched} output(s) differ from the oracle");
        ExitCode::FAILURE
    }
}
