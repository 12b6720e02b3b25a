//! Service metrics: counters, batch-size histogram and latency
//! percentiles, snapshotable while the server runs.
//!
//! Built on the `qcn-telemetry` primitives: every series lives in a
//! **per-server** [`Registry`] (so tests running several servers in one
//! process never share state), latencies are recorded twice — exactly,
//! into a windowed [`Summary`] for the nearest-rank percentiles the
//! snapshot reports, and bucketed, into a telemetry [`Histogram`] for the
//! Prometheus exposition — and [`Metrics::render_prometheus`] appends the
//! process-wide [`qcn_telemetry::global`] registry (engine stage timings,
//! thread-pool dispatch, search-cache counters) after the server's own
//! series. The socket front-end's wire series ([`WireMetrics`]) live in
//! the same registry.

use crate::net::WireMetrics;
use qcn_telemetry::{
    exponential_bounds, latency_bounds_us, Counter, Gauge, Histogram, Registry, Summary,
    DEFAULT_SUMMARY_WINDOW,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Slots in the dense per-size batch histogram. Slot `i < 63` counts
/// batches of size `i + 1`; the last slot counts every batch of size
/// ≥ `BATCH_HIST_SLOTS`. The cap keeps the snapshot's `Vec` bounded no
/// matter how large `max_batch` is configured (an earlier version
/// allocated `max_batch` slots up front, so a pathological configuration
/// could pin a huge dense vector).
pub const BATCH_HIST_SLOTS: usize = 64;

/// Shared metrics sink updated by the submission path, the workers and
/// the socket front-end.
#[derive(Debug)]
pub(crate) struct Metrics {
    started: Instant,
    registry: Registry,
    submitted: Counter,
    completed: Counter,
    rejected_full: Counter,
    rejected_closed: Counter,
    expired: Counter,
    failed: Counter,
    shed: Counter,
    worker_respawns: Counter,
    queue_depth: Gauge,
    queue_depth_max: Gauge,
    /// The socket front-end's connection, malformed-frame and byte series.
    pub(crate) wire: WireMetrics,
    latency_hist: Histogram,
    /// Exact quantiles over the most recent per-request latencies (µs).
    latency_window: Summary,
    batch_hist: Histogram,
    /// `dense_batches[i]` counts executed batches of size `i + 1`; the
    /// last slot absorbs sizes ≥ [`BATCH_HIST_SLOTS`].
    dense_batches: [AtomicU64; BATCH_HIST_SLOTS],
    /// Slots the snapshot reports at least (`max_batch`, capped).
    batch_slots: usize,
}

impl Metrics {
    pub(crate) fn new(max_batch: usize) -> Self {
        Metrics::with_latency_window(max_batch, DEFAULT_SUMMARY_WINDOW)
    }

    /// A sink with an explicit latency-window capacity (tests shrink it to
    /// exercise displacement without a million samples).
    pub(crate) fn with_latency_window(max_batch: usize, latency_window: usize) -> Self {
        let registry = Registry::new();
        let counter = |name: &str, help: &str| registry.counter(name, &[], help);
        Metrics {
            started: Instant::now(),
            submitted: counter(
                "qcn_serve_requests_submitted_total",
                "requests accepted into the queue",
            ),
            completed: counter(
                "qcn_serve_requests_completed_total",
                "requests answered with a result",
            ),
            rejected_full: registry.counter(
                "qcn_serve_requests_rejected_total",
                &[("reason", "queue_full")],
                "submissions rejected synchronously",
            ),
            rejected_closed: registry.counter(
                "qcn_serve_requests_rejected_total",
                &[("reason", "shutting_down")],
                "submissions rejected synchronously",
            ),
            expired: counter(
                "qcn_serve_requests_expired_total",
                "requests that timed out in the queue and never ran",
            ),
            failed: counter(
                "qcn_serve_requests_failed_total",
                "requests answered with an engine failure",
            ),
            shed: counter(
                "qcn_serve_requests_shed_total",
                "accepted requests evicted by overload control (Overloaded)",
            ),
            worker_respawns: counter(
                "qcn_serve_worker_respawns_total",
                "worker threads respawned in place after a panic",
            ),
            queue_depth: registry.gauge(
                "qcn_serve_queue_depth",
                &[],
                "submission queue depth at the last scheduler touch",
            ),
            queue_depth_max: registry.gauge(
                "qcn_serve_queue_depth_max",
                &[],
                "high-water mark of the submission queue depth",
            ),
            wire: WireMetrics::register(&registry, "serve"),
            latency_hist: registry.histogram(
                "qcn_serve_request_latency_us",
                &[],
                "end-to-end request latency (microseconds)",
                &latency_bounds_us(),
            ),
            latency_window: registry.summary(
                "qcn_serve_request_latency_window_us",
                &[],
                "exact nearest-rank latency quantiles over the most recent samples (microseconds)",
                latency_window,
            ),
            batch_hist: registry.histogram(
                "qcn_serve_batch_size",
                &[],
                "executed batch sizes",
                &exponential_bounds(1.0, 2.0, 7),
            ),
            registry,
            dense_batches: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_slots: max_batch.min(BATCH_HIST_SLOTS),
        }
    }

    pub(crate) fn on_submit(&self, queue_depth: usize) {
        self.submitted.inc();
        self.queue_depth.set(queue_depth as i64);
        self.queue_depth_max.set_max(queue_depth as i64);
    }

    /// Refreshes the queue-depth gauge from the scheduler (which observes
    /// the depth whenever it drains the queue).
    pub(crate) fn on_queue_depth(&self, queue_depth: usize) {
        self.queue_depth.set(queue_depth as i64);
    }

    pub(crate) fn on_reject_full(&self) {
        self.rejected_full.inc();
    }

    pub(crate) fn on_reject_closed(&self) {
        self.rejected_closed.inc();
    }

    pub(crate) fn on_expired(&self) {
        self.expired.inc();
    }

    pub(crate) fn on_shed(&self) {
        self.shed.inc();
    }

    pub(crate) fn on_worker_respawn(&self) {
        self.worker_respawns.inc();
    }

    pub(crate) fn on_failed(&self, n: usize) {
        self.failed.add(n as u64);
    }

    /// Records one executed batch and its requests' end-to-end latencies.
    pub(crate) fn on_batch(&self, batch_size: usize, latencies_us: &[u64]) {
        self.completed.add(latencies_us.len() as u64);
        self.batch_hist.observe(batch_size as f64);
        let slot = batch_size.min(BATCH_HIST_SLOTS) - 1;
        self.dense_batches[slot].fetch_add(1, Ordering::Relaxed);
        for &l in latencies_us {
            self.latency_window.observe(l);
            self.latency_hist.observe(l as f64);
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let [p50, p95, p99] = self.latency_window.quantiles();
        let mut batch_histogram: Vec<u64> = self
            .dense_batches
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .collect();
        // Trim to the configured slots, or further out if a larger batch
        // was ever recorded.
        let used = batch_histogram
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        batch_histogram.truncate(used.max(self.batch_slots));
        // The telemetry histogram's (count, sum) is (batches, requests
        // through batches): the exact mean even for overflow-slot sizes.
        let batches = self.batch_hist.count();
        MetricsSnapshot {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            rejected_full: self.rejected_full.get(),
            rejected_closed: self.rejected_closed.get(),
            expired: self.expired.get(),
            failed: self.failed.get(),
            shed: self.shed.get(),
            worker_respawns: self.worker_respawns.get(),
            max_queue_depth: self.queue_depth_max.get() as usize,
            connections_accepted: self.wire.accepted.get(),
            connections_active: self.wire.active.get().max(0) as usize,
            malformed_frames: self.wire.malformed.get(),
            bytes_in: self.wire.bytes_in.get(),
            bytes_out: self.wire.bytes_out.get(),
            batch_histogram,
            mean_batch: if batches == 0 {
                0.0
            } else {
                self.batch_hist.sum() / batches as f64
            },
            latency_p50_us: p50,
            latency_p95_us: p95,
            latency_p99_us: p99,
        }
    }

    /// Prometheus text exposition: the server's own registry (the exact
    /// recent-window latency quantiles among it, as a summary), uptime,
    /// then the process-wide library metrics (engine stage timings,
    /// thread-pool dispatch, search-cache counters).
    pub(crate) fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.registry.render_prometheus_into(&mut out);
        out.push_str("# HELP qcn_serve_uptime_seconds seconds since the server started\n");
        out.push_str("# TYPE qcn_serve_uptime_seconds gauge\n");
        out.push_str(&format!(
            "qcn_serve_uptime_seconds {:.3}\n",
            self.started.elapsed().as_secs_f64()
        ));
        qcn_telemetry::global().render_prometheus_into(&mut out);
        out
    }
}

/// A point-in-time view of the service counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with a result.
    pub completed: u64,
    /// Submissions rejected with `QueueFull`.
    pub rejected_full: u64,
    /// Submissions rejected with `ShuttingDown`.
    pub rejected_closed: u64,
    /// Requests that timed out in the queue (`DeadlineExceeded`).
    pub expired: u64,
    /// Requests answered with `EngineFailure`.
    pub failed: u64,
    /// Accepted requests evicted by overload control (`Overloaded`).
    pub shed: u64,
    /// Worker threads respawned in place after a panic escaped the
    /// per-batch isolation.
    pub worker_respawns: u64,
    /// High-water mark of the submission queue depth.
    pub max_queue_depth: usize,
    /// Socket connections accepted by the front-end since start.
    pub connections_accepted: u64,
    /// Socket connections currently open.
    pub connections_active: usize,
    /// Frames the front-end rejected as unparseable (each closes its
    /// connection — framing cannot be trusted afterwards).
    pub malformed_frames: u64,
    /// Wire bytes read from clients (frame headers + payloads).
    pub bytes_in: u64,
    /// Wire bytes written to clients (frame headers + payloads).
    pub bytes_out: u64,
    /// `batch_histogram[i]` counts executed batches of size `i + 1`; the
    /// last reachable slot (index [`BATCH_HIST_SLOTS`] − 1) absorbs every
    /// larger size, keeping the vector bounded for any `max_batch`.
    pub batch_histogram: Vec<u64>,
    /// Mean executed batch size (exact, including overflow-slot batches).
    pub mean_batch: f64,
    /// Median end-to-end request latency (µs, nearest-rank) over the
    /// most recent samples.
    pub latency_p50_us: u64,
    /// 95th-percentile end-to-end request latency (µs).
    pub latency_p95_us: u64,
    /// 99th-percentile end-to-end request latency (µs).
    pub latency_p99_us: u64,
}

impl MetricsSnapshot {
    /// Completed requests per second of uptime.
    pub fn throughput_rps(&self) -> f64 {
        if self.uptime_secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.uptime_secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let m = Metrics::new(4);
        m.on_batch(4, &[10, 20, 30, 40]);
        m.on_batch(2, &[50, 60]);
        let s = m.snapshot();
        assert_eq!(s.completed, 6);
        assert_eq!(s.latency_p50_us, 30);
        assert_eq!(s.latency_p95_us, 60);
        assert_eq!(s.latency_p99_us, 60);
        assert_eq!(s.batch_histogram, vec![0, 1, 0, 1]);
        assert!((s.mean_batch - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Metrics::new(2).snapshot();
        assert_eq!(s.completed, 0);
        assert_eq!(s.latency_p99_us, 0);
        assert_eq!(s.mean_batch, 0.0);
        assert_eq!(s.connections_accepted, 0);
        assert_eq!(s.connections_active, 0);
        assert_eq!(s.bytes_in, 0);
    }

    #[test]
    fn oversized_batches_grow_the_histogram() {
        // Defensive: the server never exceeds max_batch, but the sink must
        // not index out of bounds if it ever did.
        let m = Metrics::new(1);
        m.on_batch(3, &[1, 2, 3]);
        assert_eq!(m.snapshot().batch_histogram, vec![0, 0, 1]);
    }

    #[test]
    fn giant_batches_land_in_the_overflow_slot() {
        // Regression: the dense histogram used to allocate `max_batch`
        // slots eagerly and grow to any observed size — a huge max_batch
        // (or a rogue size) could pin an unbounded vector. Sizes beyond
        // the cap now share the final slot and the mean stays exact.
        let m = Metrics::new(1 << 20);
        assert_eq!(m.snapshot().batch_histogram.len(), BATCH_HIST_SLOTS);
        m.on_batch(BATCH_HIST_SLOTS, &vec![1; BATCH_HIST_SLOTS]);
        m.on_batch(1 << 19, &vec![1; 2]); // latencies needn't match size here
        let s = m.snapshot();
        assert_eq!(s.batch_histogram.len(), BATCH_HIST_SLOTS);
        assert_eq!(s.batch_histogram[BATCH_HIST_SLOTS - 1], 2);
        let want = (BATCH_HIST_SLOTS + (1 << 19)) as f64 / 2.0;
        assert!((s.mean_batch - want).abs() < 1e-9, "mean {}", s.mean_batch);
    }

    #[test]
    fn latency_window_retains_most_recent_samples() {
        // Regression: the old "keep the first N" cap froze percentiles at
        // startup traffic. New samples must displace old ones.
        let m = Metrics::with_latency_window(1, 4);
        m.on_batch(1, &[1]);
        m.on_batch(1, &[1]);
        m.on_batch(1, &[1]);
        m.on_batch(1, &[1]);
        assert_eq!(m.snapshot().latency_p99_us, 1);
        // Four newer, slower samples fill the whole window.
        m.on_batch(4, &[900, 900, 900, 900]);
        let s = m.snapshot();
        assert_eq!(s.latency_p50_us, 900);
        assert_eq!(s.latency_p99_us, 900);
        // Completion counting is unaffected by displacement.
        assert_eq!(s.completed, 8);
        // Partial displacement keeps the most recent window, oldest-first.
        m.on_batch(2, &[7, 8]);
        let s = m.snapshot();
        assert_eq!(s.latency_p50_us, 8); // sorted window [7, 8, 900, 900]
        assert_eq!(s.latency_p99_us, 900);
    }

    #[test]
    fn wire_counters_accumulate() {
        let m = Metrics::new(1);
        m.wire.accepted.add(2);
        m.wire.active.add(2);
        m.wire.active.dec();
        m.wire.malformed.inc();
        m.wire.bytes_in.add(128);
        m.wire.bytes_in.add(64);
        m.wire.bytes_out.add(256);
        let s = m.snapshot();
        assert_eq!(s.connections_accepted, 2);
        assert_eq!(s.connections_active, 1);
        assert_eq!(s.malformed_frames, 1);
        assert_eq!(s.bytes_in, 192);
        assert_eq!(s.bytes_out, 256);
    }

    #[test]
    fn prometheus_rendering_carries_the_serve_series() {
        let m = Metrics::new(4);
        m.on_submit(3);
        m.on_batch(2, &[10, 20]);
        m.wire.bytes_in.add(96);
        let text = m.render_prometheus();
        for needle in [
            "# TYPE qcn_serve_requests_submitted_total counter",
            "qcn_serve_requests_submitted_total 1",
            "qcn_serve_queue_depth_max 3",
            "qcn_serve_wire_bytes_total{direction=\"in\"} 96",
            "qcn_serve_request_latency_us_bucket{le=\"+Inf\"} 2",
            "qcn_serve_batch_size_sum 2",
            "qcn_serve_request_latency_window_us{quantile=\"0.5\"} 10",
            "# TYPE qcn_serve_uptime_seconds gauge",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
