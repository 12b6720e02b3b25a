//! Router metrics: a private [`Registry`] per router instance (so
//! side-by-side routers in one process never bleed counters into each
//! other), with per-backend labelled series, the client front-end's wire
//! series and an exact recent-window latency summary, rendered as
//! Prometheus text for the wire-level stats frame.

use qcn_serve::net::WireMetrics;
use qcn_telemetry::{
    latency_bounds_us, Counter, Gauge, Histogram, Registry, Summary, DEFAULT_SUMMARY_WINDOW,
};
use std::net::SocketAddr;
use std::time::Instant;

/// Metric handles the router's hot paths touch. All lock-free atomics
/// except the latency window's own lock.
pub(crate) struct RouterMetrics {
    registry: Registry,
    started: Instant,
    /// Requests admitted and not yet answered.
    pub inflight: Gauge,
    /// Requests rejected at admission (`QueueFull` to the client).
    pub rejected: Counter,
    /// Responses relayed from a backend to a client.
    pub completed: Counter,
    /// Router-synthesized failure responses (retry budget exhausted).
    pub failed: Counter,
    /// Stats frames answered with the router's own metrics.
    pub stats_served: Counter,
    /// The client front-end's connection, malformed-frame and byte series.
    pub wire: WireMetrics,
    latency_hist: Histogram,
    /// Exact quantiles over the most recent end-to-end latencies (µs).
    pub latency_window: Summary,
}

/// Labelled handles for one backend.
#[derive(Clone)]
pub(crate) struct BackendMetrics {
    /// `qcn_router_requests_total{backend,outcome="ok"}` — responses
    /// relayed from this backend.
    pub ok: Counter,
    /// `outcome="error"` — requests that died with this backend as their
    /// last attempt.
    pub error: Counter,
    /// Retry attempts charged to a failure of this backend.
    pub retries: Counter,
    /// Retries denied because this backend's token bucket was empty.
    pub budget_exhausted: Counter,
    /// Transitions into the ejected state.
    pub ejections: Counter,
    /// Requests currently awaiting this backend's answer.
    pub outstanding: Gauge,
    /// 1 while the balancer may route here, 0 while ejected.
    pub healthy: Gauge,
    pub health_ok: Counter,
    pub health_fail: Counter,
    /// Upstream connections dialed (initial + reconnects).
    pub connects: Counter,
}

impl RouterMetrics {
    pub(crate) fn new() -> RouterMetrics {
        let registry = Registry::new();
        RouterMetrics {
            started: Instant::now(),
            inflight: registry.gauge(
                "qcn_router_inflight",
                &[],
                "requests admitted by the router and not yet answered",
            ),
            rejected: registry.counter(
                "qcn_router_rejected_total",
                &[],
                "requests rejected at admission with QueueFull",
            ),
            completed: registry.counter(
                "qcn_router_completed_total",
                &[],
                "backend responses relayed to clients",
            ),
            failed: registry.counter(
                "qcn_router_failed_total",
                &[],
                "router-synthesized failure responses (retry budget exhausted)",
            ),
            stats_served: registry.counter(
                "qcn_router_stats_served_total",
                &[],
                "stats frames answered with the router's own metrics",
            ),
            wire: WireMetrics::register(&registry, "router"),
            latency_hist: registry.histogram(
                "qcn_router_request_latency_us",
                &[],
                "end-to-end routed request latency (microseconds)",
                &latency_bounds_us(),
            ),
            latency_window: registry.summary(
                "qcn_router_request_latency_window_us",
                &[],
                "exact nearest-rank latency quantiles over the most recent samples (microseconds)",
                DEFAULT_SUMMARY_WINDOW,
            ),
            registry,
        }
    }

    /// Registers the labelled series for one backend.
    pub(crate) fn backend(&self, addr: &SocketAddr) -> BackendMetrics {
        let addr = addr.to_string();
        let l = &[("backend", addr.as_str())];
        BackendMetrics {
            ok: self.registry.counter(
                "qcn_router_requests_total",
                &[("backend", addr.as_str()), ("outcome", "ok")],
                "routed requests by backend and final outcome",
            ),
            error: self.registry.counter(
                "qcn_router_requests_total",
                &[("backend", addr.as_str()), ("outcome", "error")],
                "routed requests by backend and final outcome",
            ),
            retries: self.registry.counter(
                "qcn_router_retries_total",
                l,
                "retry attempts charged to a failure of this backend",
            ),
            budget_exhausted: self.registry.counter(
                "qcn_router_retry_budget_exhausted_total",
                l,
                "retries denied because this backend's retry budget was empty",
            ),
            ejections: self.registry.counter(
                "qcn_router_ejections_total",
                l,
                "transitions of this backend into the ejected state",
            ),
            outstanding: self.registry.gauge(
                "qcn_router_backend_outstanding",
                l,
                "requests awaiting this backend's answer",
            ),
            healthy: self.registry.gauge(
                "qcn_router_backend_healthy",
                l,
                "1 while the balancer may route to this backend",
            ),
            health_ok: self.registry.counter(
                "qcn_router_healthchecks_total",
                &[("backend", addr.as_str()), ("outcome", "ok")],
                "health probes by backend and outcome",
            ),
            health_fail: self.registry.counter(
                "qcn_router_healthchecks_total",
                &[("backend", addr.as_str()), ("outcome", "fail")],
                "health probes by backend and outcome",
            ),
            connects: self.registry.counter(
                "qcn_router_backend_connects_total",
                l,
                "upstream connections dialed to this backend",
            ),
        }
    }

    pub(crate) fn observe_latency_us(&self, us: u64) {
        self.latency_hist.observe(us as f64);
        self.latency_window.observe(us);
    }

    pub(crate) fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Prometheus text: the router registry (the exact recent-window
    /// latency quantiles among it), uptime, then the process-wide library
    /// metrics.
    pub(crate) fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.registry.render_prometheus_into(&mut out);
        out.push_str("# HELP qcn_router_uptime_seconds seconds since the router started\n");
        out.push_str("# TYPE qcn_router_uptime_seconds gauge\n");
        out.push_str(&format!(
            "qcn_router_uptime_seconds {:.3}\n",
            self.uptime_secs()
        ));
        qcn_telemetry::global().render_prometheus_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    #[test]
    fn exposition_carries_backend_labels_and_the_window_summary() {
        let m = RouterMetrics::new();
        let b = m.backend(&SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 9000));
        b.ok.inc();
        b.outstanding.set(3);
        m.observe_latency_us(100);
        m.observe_latency_us(300);
        let text = m.render_prometheus();
        assert!(
            text.contains("qcn_router_requests_total{backend=\"127.0.0.1:9000\",outcome=\"ok\"} 1")
        );
        assert!(text.contains("qcn_router_backend_outstanding{backend=\"127.0.0.1:9000\"} 3"));
        assert!(text.contains("qcn_router_request_latency_window_us{quantile=\"0.99\"} 300"));
        assert!(text.contains("qcn_router_uptime_seconds"));
    }
}
