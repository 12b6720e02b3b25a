//! # qcn-telemetry — tracing, logging and metrics for the Q-CapsNets stack
//!
//! A lightweight, dependency-free observability subsystem shared by every
//! layer of the repo: the tensor thread pool, both inference engines, the
//! search-time evaluator and the serving tier. Three facilities:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`],
//!   [`Summary`]) — a named metric registry with atomic counters, gauges,
//!   bucketed histograms and exact recent-window quantile summaries,
//!   rendered in the Prometheus text exposition format
//!   ([`Registry::render_prometheus`]). A process-wide registry
//!   ([`global`]) collects library-level metrics (engine stage timings,
//!   pool dispatches, evaluator cache traffic); components with their own
//!   lifecycle (one `qcn_serve::Server` per test, say) create private
//!   [`Registry`] instances so their counters never bleed into each other.
//! * **Spans** ([`StageTimer`], [`maybe_start`]) — RAII wall-clock timers
//!   that record elapsed microseconds into a histogram. Gated by a single
//!   relaxed atomic ([`timing_enabled`]): when disabled the whole span is
//!   one load-and-branch, no clock read, no allocation.
//! * **Logging** ([`Level`], [`log_enabled`], [`error!`], [`warn!`],
//!   [`info!`], [`debug!`], [`trace!`]) — a leveled stderr logger gated by
//!   the `QCN_LOG` environment variable. A disabled level costs one
//!   relaxed atomic load; arguments are not even evaluated.
//!
//! ## Environment
//!
//! | Variable        | Effect                                                       |
//! |-----------------|--------------------------------------------------------------|
//! | `QCN_LOG`       | log level: `off`, `error`, `warn` (default), `info`, `debug`, `trace` |
//! | `QCN_TELEMETRY` | `0`/`off` disables span timing and metric recording hooks    |
//!
//! Both are read once per process; tests and binaries can override at
//! runtime with [`set_level`] / [`set_timing`].
//!
//! ## Determinism
//!
//! Nothing in this crate feeds back into computation: spans only read the
//! clock, metrics only count. Enabling or disabling telemetry can never
//! change a single output bit — the serving and equivalence suites run
//! with it both on and off.

#![warn(missing_docs)]

mod log;
mod metrics;
mod percentile;
mod span;

#[doc(hidden)]
pub use log::__emit;
pub use log::{level, log_enabled, set_default_level, set_level, Level};
pub use metrics::{
    exponential_bounds, global, latency_bounds_us, Counter, Gauge, Histogram, Labels,
    MetricSnapshot, MetricValue, Registry, Summary, DEFAULT_SUMMARY_WINDOW,
};
pub use percentile::{nearest_rank, SampleWindow};
pub use span::{maybe_start, set_timing, timing_enabled, StageTimer};
