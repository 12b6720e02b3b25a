//! The metrics registry: named counters, gauges, bucketed histograms and
//! windowed summaries with Prometheus text exposition.
//!
//! A [`Registry`] owns *families* (one name, one type, one help string),
//! each holding one or more label-distinguished series. Handles
//! ([`Counter`], [`Gauge`], [`Histogram`], [`Summary`]) are cheap `Arc`
//! clones: registration takes the registry lock once, the hot path never
//! does (a summary takes only its own window lock). Registering an
//! existing `(name, labels)` pair returns a handle to the same underlying
//! series, so any component can ask for "its" metric without
//! coordinating ownership.

use crate::percentile::{nearest_rank, SampleWindow};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Label set of one series: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn labels_of(pairs: &[(&str, &str)]) -> Labels {
    let mut l: Labels = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    l
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depth, live connections) or
/// track a high-water mark.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Raises the value to `v` if it is higher (high-water marks).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    /// Finite ascending bucket upper bounds; an implicit `+Inf` bucket
    /// follows the last.
    bounds: Vec<f64>,
    /// Per-bucket observation counts, `bounds.len() + 1` entries.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, stored as `f64` bits (CAS add).
    sum_bits: AtomicU64,
}

/// A bucketed histogram: fixed upper bounds chosen at registration,
/// lock-free observation, estimated percentiles.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut old = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(old) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                old,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => old = actual,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated nearest-rank percentile: the upper bound of the bucket
    /// holding the rank-`⌈q·n⌉` observation. Saturates at the largest
    /// finite bound when the rank falls in the `+Inf` bucket; returns 0.0
    /// when empty.
    ///
    /// Bucket sums are read without a global lock, so a concurrent
    /// observer can make the walk see slightly stale counts — fine for a
    /// monitoring estimate (the exact-percentile path is [`Summary`]).
    pub fn percentile(&self, q: f64) -> f64 {
        let core = &self.0;
        let counts: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < core.bounds.len() {
                    core.bounds[i]
                } else {
                    // +Inf bucket: saturate at the largest finite bound.
                    core.bounds.last().copied().unwrap_or(f64::INFINITY)
                };
            }
        }
        unreachable!("rank is clamped into the total");
    }
}

/// The quantiles every [`Summary`] reports.
const SUMMARY_QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Default number of most-recent samples a [`Summary`] retains.
pub const DEFAULT_SUMMARY_WINDOW: usize = 1 << 20;

/// A windowed summary: **exact** nearest-rank p50/p95/p99 over a bounded
/// ring of the most recent samples ([`SampleWindow`]), so a long-running
/// component's quantiles always describe current traffic while memory
/// stays bounded.
///
/// Reading copies the window under its lock and sorts the copy after
/// releasing it, so a scrape never holds up the observers.
#[derive(Debug, Clone)]
pub struct Summary(Arc<Mutex<SampleWindow>>);

impl Summary {
    /// Records one sample, displacing the oldest once the window is full.
    pub fn observe(&self, v: u64) {
        self.0.lock().expect("summary window lock").push(v);
    }

    /// The current `[p50, p95, p99]` (all zero before any sample).
    pub fn quantiles(&self) -> [u64; 3] {
        let mut samples = self.0.lock().expect("summary window lock").to_vec();
        samples.sort_unstable();
        SUMMARY_QUANTILES.map(|q| nearest_rank(&samples, q))
    }
}

/// `count` exponentially spaced bucket bounds starting at `start`
/// (`start, start·factor, …`) — the usual latency layout.
///
/// # Panics
///
/// Panics when `start <= 0`, `factor <= 1` or `count == 0`.
pub fn exponential_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0, "bucket start must be positive");
    assert!(factor > 1.0, "bucket factor must exceed 1");
    assert!(count >= 1, "at least one bucket");
    let mut bounds = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        bounds.push(b);
        b *= factor;
    }
    bounds
}

/// Default microsecond-latency bounds: 13 exponential buckets from 10 µs
/// to ~168 s, covering everything from a single conv stage to a cold
/// DeepCaps batch.
pub fn latency_bounds_us() -> Vec<f64> {
    exponential_bounds(10.0, 4.0, 13)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
    Summary,
}

impl Kind {
    fn type_label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Summary => "summary",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Summary(Summary),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    series: BTreeMap<Labels, Series>,
}

/// The current value of one series, as read by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's count.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram's cumulative state.
    Histogram {
        /// `(upper_bound, cumulative_count)` per finite bucket, ascending,
        /// with the `+Inf` bucket last (`f64::INFINITY`).
        buckets: Vec<(f64, u64)>,
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
    },
    /// A summary's `(quantile, value)` pairs: 0.5, 0.95 and 0.99.
    Summary(Vec<(f64, u64)>),
}

/// One `(name, labels, value)` triple from a registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Family name.
    pub name: String,
    /// The series' sorted label pairs.
    pub labels: Labels,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A named collection of metric families.
///
/// # Examples
///
/// ```
/// use qcn_telemetry::Registry;
///
/// let reg = Registry::new();
/// let hits = reg.counter("cache_hits_total", &[("tier", "memo")], "cache hits");
/// hits.inc();
/// hits.add(2);
/// assert_eq!(hits.get(), 3);
/// let text = reg.render_prometheus();
/// assert!(text.contains("cache_hits_total{tier=\"memo\"} 3"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets the `(name, labels)` series, creating it with `make` (and the
    /// family with `help`) on first registration.
    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        kind: Kind,
        make: impl FnOnce() -> Series,
    ) -> Series {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut families = self.families.lock().expect("metric registry lock");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} registered as {} and {}",
            family.kind.type_label(),
            kind.type_label(),
        );
        family
            .series
            .entry(labels_of(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Gets or registers a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        let make = || Series::Counter(Counter(Arc::new(AtomicU64::new(0))));
        match self.register(name, labels, help, Kind::Counter, make) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Gets or registers a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        let make = || Series::Gauge(Gauge(Arc::new(AtomicI64::new(0))));
        match self.register(name, labels, help, Kind::Gauge, make) {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Gets or registers a histogram series with the given finite bucket
    /// upper bounds (ascending; an implicit `+Inf` bucket is appended).
    /// Bounds are fixed by the first registration; later calls for the
    /// same series return the existing histogram.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly ascending.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        bounds: &[f64],
    ) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let make = || {
            let mut buckets = Vec::with_capacity(bounds.len() + 1);
            buckets.resize_with(bounds.len() + 1, || AtomicU64::new(0));
            Series::Histogram(Histogram(Arc::new(HistCore {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
            })))
        };
        match self.register(name, labels, help, Kind::Histogram, make) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Gets or registers a summary series retaining the most recent
    /// `window` samples. The window is fixed by the first registration.
    ///
    /// # Panics
    ///
    /// Panics when `window == 0`.
    pub fn summary(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        window: usize,
    ) -> Summary {
        let make = || Series::Summary(Summary(Arc::new(Mutex::new(SampleWindow::new(window)))));
        match self.register(name, labels, help, Kind::Summary, make) {
            Series::Summary(s) => s,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// A point-in-time read of every registered series. Each value is read
    /// atomically; concurrent updates land either before or after the
    /// snapshot, never as a torn value.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let families = self.families.lock().expect("metric registry lock");
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, series) in family.series.iter() {
                let value = match series {
                    Series::Counter(c) => MetricValue::Counter(c.get()),
                    Series::Gauge(g) => MetricValue::Gauge(g.get()),
                    Series::Histogram(h) => {
                        let core = &h.0;
                        let mut cumulative = 0u64;
                        let mut buckets = Vec::with_capacity(core.buckets.len());
                        for (i, b) in core.buckets.iter().enumerate() {
                            cumulative += b.load(Ordering::Relaxed);
                            let bound = core.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                            buckets.push((bound, cumulative));
                        }
                        MetricValue::Histogram {
                            buckets,
                            count: h.count(),
                            sum: h.sum(),
                        }
                    }
                    Series::Summary(s) => MetricValue::Summary(
                        SUMMARY_QUANTILES.into_iter().zip(s.quantiles()).collect(),
                    ),
                };
                out.push(MetricSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value,
                });
            }
        }
        out
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` once per family, one line per
    /// series, histograms as cumulative `_bucket`/`_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.render_prometheus_into(&mut out);
        out
    }

    /// [`render_prometheus`](Registry::render_prometheus) appending to an
    /// existing buffer (so several registries can share one page).
    pub fn render_prometheus_into(&self, out: &mut String) {
        let families = self.families.lock().expect("metric registry lock");
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.type_label());
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", name, render_labels(labels, &[]), c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", name, render_labels(labels, &[]), g.get());
                    }
                    Series::Histogram(h) => {
                        let core = &h.0;
                        let mut cumulative = 0u64;
                        for (i, b) in core.buckets.iter().enumerate() {
                            cumulative += b.load(Ordering::Relaxed);
                            let le = match core.bounds.get(i) {
                                Some(bound) => fmt_f64(*bound),
                                None => "+Inf".to_string(),
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                name,
                                render_labels(labels, &[("le", &le)]),
                                cumulative
                            );
                        }
                        let plain = render_labels(labels, &[]);
                        let _ = writeln!(out, "{}_sum{} {}", name, plain, fmt_f64(h.sum()));
                        let _ = writeln!(out, "{}_count{} {}", name, plain, h.count());
                    }
                    Series::Summary(s) => {
                        for (q, v) in SUMMARY_QUANTILES.into_iter().zip(s.quantiles()) {
                            let q = q.to_string();
                            let labels = render_labels(labels, &[("quantile", &q)]);
                            let _ = writeln!(out, "{name}{labels} {v}");
                        }
                    }
                }
            }
        }
    }
}

/// The process-wide registry library code records into (engine stage
/// timings, pool dispatch counters, evaluator cache traffic). Components
/// with their own lifecycle should prefer a private [`Registry`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Prometheus metric-name charset: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders `{k="v",...}` from the series labels plus any extra pairs
/// (the histogram `le`); empty label sets render as nothing.
fn render_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

/// `f64` for exposition: integers without a trailing `.0`, otherwise the
/// shortest round-trip form.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share_state() {
        let reg = Registry::new();
        let a = reg.counter("requests_total", &[("model", "shallow")], "requests");
        let b = reg.counter("requests_total", &[("model", "shallow")], "requests");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5, "same series, shared state");
        let other = reg.counter("requests_total", &[("model", "deep")], "requests");
        assert_eq!(other.get(), 0, "distinct labels, distinct series");

        let g = reg.gauge("queue_depth", &[], "depth");
        g.set(7);
        g.dec();
        g.set_max(3);
        assert_eq!(g.get(), 6, "set_max must not lower the value");
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    #[should_panic(expected = "registered as counter and gauge")]
    fn kind_conflicts_are_rejected() {
        let reg = Registry::new();
        reg.counter("x_total", &[], "x");
        reg.gauge("x_total", &[], "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Registry::new().counter("bad-name", &[], "nope");
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us", &[], "latency", &[10.0, 100.0, 1000.0]);
        for v in [5.0, 10.0, 50.0, 500.0, 5000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 5565.0).abs() < 1e-9);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        match &snap[0].value {
            MetricValue::Histogram { buckets, count, .. } => {
                // Cumulative: ≤10 → 2, ≤100 → 3, ≤1000 → 4, +Inf → 5.
                assert_eq!(
                    buckets,
                    &vec![(10.0, 2), (100.0, 3), (1000.0, 4), (f64::INFINITY, 5)]
                );
                assert_eq!(*count, 5);
            }
            other => panic!("expected a histogram, got {other:?}"),
        }
    }

    #[test]
    fn histogram_percentile_edge_cases() {
        let reg = Registry::new();
        let h = reg.histogram("p_us", &[], "p", &[10.0, 100.0, 1000.0]);
        // Empty histogram: every percentile is 0.
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.percentile(0.99), 0.0);
        // Single sample: every percentile is its bucket's bound.
        h.observe(42.0);
        assert_eq!(h.percentile(0.01), 100.0);
        assert_eq!(h.percentile(0.50), 100.0);
        assert_eq!(h.percentile(1.0), 100.0);
        // Saturating bucket: observations beyond the last finite bound
        // land in +Inf and report the largest finite bound, not infinity.
        let sat = reg.histogram("sat_us", &[], "sat", &[10.0]);
        sat.observe(1e9);
        assert_eq!(sat.percentile(0.99), 10.0);
        assert_eq!(sat.count(), 1);
    }

    #[test]
    fn exponential_bounds_are_ascending() {
        let b = exponential_bounds(10.0, 4.0, 5);
        assert_eq!(b, vec![10.0, 40.0, 160.0, 640.0, 2560.0]);
        assert!(latency_bounds_us().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = Registry::new();
        reg.counter("req_total", &[("model", "a\"b")], "requests served")
            .add(3);
        reg.gauge("depth", &[], "queue depth").set(-2);
        let h = reg.histogram("lat_us", &[("stage", "conv")], "latency", &[10.0, 100.0]);
        h.observe(50.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP req_total requests served\n"));
        assert!(text.contains("# TYPE req_total counter\n"));
        assert!(
            text.contains("req_total{model=\"a\\\"b\"} 3\n"),
            "label values are escaped: {text}"
        );
        assert!(text.contains("depth -2\n"), "bare gauge without braces");
        assert!(text.contains("lat_us_bucket{stage=\"conv\",le=\"10\"} 0\n"));
        assert!(text.contains("lat_us_bucket{stage=\"conv\",le=\"100\"} 1\n"));
        assert!(text.contains("lat_us_bucket{stage=\"conv\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_us_sum{stage=\"conv\"} 50\n"));
        assert!(text.contains("lat_us_count{stage=\"conv\"} 1\n"));
    }

    #[test]
    fn summary_renders_and_snapshots_window_quantiles() {
        let reg = Registry::new();
        let s = reg.summary("win_us", &[], "recent latency", 4);
        assert_eq!(s.quantiles(), [0, 0, 0], "empty window reads zero");
        for v in [1, 900, 900, 900, 900, 7, 8] {
            s.observe(v);
        }
        // Window [900, 900, 7, 8] → sorted [7, 8, 900, 900].
        assert_eq!(s.quantiles(), [8, 900, 900]);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE win_us summary\n"));
        assert!(text.contains("win_us{quantile=\"0.5\"} 8\n"));
        assert!(text.contains("win_us{quantile=\"0.99\"} 900\n"));
        assert_eq!(
            reg.snapshot()[0].value,
            MetricValue::Summary(vec![(0.5, 8), (0.95, 900), (0.99, 900)])
        );
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("qcn_telemetry_selftest_total", &[], "selftest");
        let before = c.get();
        global()
            .counter("qcn_telemetry_selftest_total", &[], "selftest")
            .inc();
        assert_eq!(c.get(), before + 1);
    }
}
