//! Every metric name the benchmark can print, with its unit. The result
//! line refuses any other name, and a test keeps this list and
//! `BENCHMARK.json` identical.

pub const WORKLOADS: [&str; 2] = ["serve_int_rtn", "search_lib"];

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("rss_peak_mb", "MB"),
];

const SERVE_LAYERS: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("gen.late_ms_p99", "ms"),
    ("gen.backlog_end", "count"),
    ("client.sent", "count"),
    ("client.ok", "count"),
    ("client.failed", "count"),
    ("client.refused", "count"),
    ("router.overhead_us", "us"),
    ("router.retries", "count"),
    ("router.rejected", "count"),
    ("router.backend_skew", "ratio"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p95_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.open_mean_batch", "req/batch"),
    ("serve.mean_batch", "req/batch"),
    ("serve.max_queue_depth", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.wire_bytes_per_req", "B"),
    ("engine.b1_us", "us"),
    ("engine.b8_us", "us"),
    ("stage.L1_us", "us"),
    ("stage.L2_us", "us"),
    ("stage.L3_us", "us"),
];

const SCHEMES: [&str; 4] = ["TRN", "RTN", "RTNE", "SR"];
const CORE_COUNTS: [&str; 7] = [
    "evaluations",
    "stages_run",
    "stages_skipped",
    "prefix_hits",
    "memo_hits",
    "early_exits",
    "speculative_probes",
];
/// Inference stages of the two searched models, named by their groups.
const SEARCH_STAGES: &[(&str, &[&str])] = &[
    ("shallow", &["L1", "L2", "L3"]),
    ("deep", &["L1", "B2", "B3", "L4"]),
];

/// Every per-layer metric in print order, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    // The host's median dilation over the traced pass (see `calib`).
    let mut out: Vec<(String, &'static str)> = vec![("host.dilation".to_string(), "ratio")];
    out.extend(SERVE_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    for model in ["shallow", "deep"] {
        for scheme in SCHEMES {
            out.push((format!("search.{model}.{scheme}_s"), "s"));
        }
    }
    for field in CORE_COUNTS {
        for scheme in SCHEMES {
            out.push((format!("core.{field}.{scheme}"), "count"));
        }
    }
    for (model, stages) in SEARCH_STAGES {
        for stage in *stages {
            out.push((format!("stage.{model}.{stage}_us"), "us"));
        }
    }
    for &(name, unit) in END_TO_END {
        out.push((format!("trace_overhead.{name}"), unit));
    }
    out
}

/// Every per-layer metric at 0: a layer the workload bypasses does no work.
pub fn per_layer_zeroed() -> Vec<(String, f64)> {
    per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect()
}

pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric array of `BENCHMARK.json`. The
    /// arrays hold flat objects only, so scanning up to the closing `]` is
    /// enough without a JSON parser.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, k: &str| -> String {
            let at = obj.find(&format!("\"{k}\"")).expect("field present");
            let rest = &obj[at + k.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn every_printable_name_is_declared_in_benchmark_json() {
        let json = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section(&json, "per_layer"), layers);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let json = benchmark_json();
        let start = json.find("\"workloads\"").expect("workloads present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("workloads close")];
        let names: Vec<&str> = body
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("workload name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(all.len() <= END_TO_END.len() + 128);
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
