//! The concurrent inference server: bounded submission queue, dynamic
//! micro-batching scheduler, worker pool and response routing.
//!
//! ## Scheduling
//!
//! Clients [`submit`](Server::submit) single samples; workers drain the
//! queue into *batches*. A batch is formed from the oldest queued request:
//! the worker collects further requests **for the same model** until the
//! batch reaches [`ServeConfig::max_batch`] or the oldest request has
//! waited [`ServeConfig::batch_window`], whichever comes first — the
//! classic max-size-or-max-wait dynamic batching rule. Batches never mix
//! models, so every request executes on exactly the engine it addressed.
//!
//! ## Determinism
//!
//! Responses are bit-identical to sequential single-sample inference (a
//! fresh quantization context per request, exactly `CapsNet::infer` /
//! `IntModel::infer` on a `[1, c, h, w]` input) regardless of arrival
//! order, batch composition, worker count, or kernel thread count:
//!
//! * every engine invocation seeds a fresh context, so no request's result
//!   depends on which requests ran before it;
//! * every batch is fused into one kernel invocation, which is bit-exact
//!   for every engine and rounding scheme (the batch-fusion contract in
//!   [`crate::engine`]);
//! * the kernels themselves are thread-count invariant (the repo's
//!   position-keyed epilogue contract).
//!
//! ## Robustness
//!
//! * **Backpressure**: the queue is bounded; a full queue rejects with
//!   [`SubmitError::QueueFull`] instead of growing without limit.
//! * **Admission checks**: a sample the engine cannot execute (wrong
//!   geometry, or off its input grid) is rejected at submit
//!   ([`SubmitError::BadInput`], [`SubmitError::OffGrid`]), so one bad
//!   request never fails the batch it would have joined.
//! * **Load shedding**: with [`ServeConfig::shed_watermark`] set, a queue
//!   deeper than the watermark sheds the request with the earliest
//!   deadline (oldest submission when none carry deadlines), answering it
//!   [`ServeError::Overloaded`]. Under a burst the queue keeps admitting
//!   fresh work and drops the work least likely to still matter, instead
//!   of rejecting everything at the hard capacity wall.
//! * **Timeouts**: with [`ServeConfig::request_timeout`] set, a request
//!   still queued past its deadline is answered
//!   [`ServeError::DeadlineExceeded`] and never executed. Requests already
//!   in a forming batch always run to completion.
//! * **Fault isolation**: a panicking engine fails only the requests of
//!   that batch ([`ServeError::EngineFailure`]); the worker survives.
//! * **Graceful shutdown**: [`shutdown`](Server::shutdown) stops accepting
//!   work, lets workers drain every queued request, then joins them.

use crate::engine::ServeEngine;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::registry::ModelRegistry;
use qcn_intinfer::on_grid;
use qcn_tensor::Tensor;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch a worker fuses (≥ 1). Larger batches amortize kernel
    /// dispatch but add queueing latency under light load.
    pub max_batch: usize,
    /// Submission-queue bound (≥ 1); submissions beyond it are rejected
    /// with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// How long the oldest request of a forming batch may wait for
    /// companions before the batch is dispatched as-is.
    pub batch_window: Duration,
    /// Per-request queueing deadline. `None` disables expiry.
    pub request_timeout: Option<Duration>,
    /// Worker threads draining the queue (≥ 1). Each worker dispatches
    /// into the kernels' own thread pool, so more than a few workers
    /// mostly helps when serving several models concurrently.
    pub workers: usize,
    /// Load-shedding watermark (≥ 1 when set). Whenever a submission
    /// leaves the queue deeper than this, the queued request with the
    /// earliest deadline (oldest submission if none carry deadlines) is
    /// evicted and answered [`ServeError::Overloaded`]. `None` disables
    /// shedding; the hard [`ServeConfig::queue_capacity`] rejection
    /// still applies either way.
    pub shed_watermark: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            queue_capacity: 256,
            batch_window: Duration::from_millis(2),
            request_timeout: None,
            workers: 2,
            shed_watermark: None,
        }
    }
}

/// Why a submission was rejected synchronously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No engine is registered under the requested id.
    UnknownModel(String),
    /// The sample's dimensions do not match the engine's input geometry.
    BadInput {
        /// The engine's per-sample `[c, h, w]`.
        expected: Vec<usize>,
        /// The submitted sample's dimensions.
        got: Vec<usize>,
    },
    /// A sample value lies off the input grid the engine executes on
    /// ([`ServeEngine::input_grid`]).
    OffGrid {
        /// Flat index of the first off-grid value in the sample.
        index: usize,
        /// The grid's fractional width (values must be multiples of
        /// `2^-frac`).
        frac: u8,
    },
    /// The bounded queue is at capacity (backpressure).
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The server no longer accepts work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownModel(id) => write!(f, "no model registered under {id:?}"),
            SubmitError::BadInput { expected, got } => {
                write!(
                    f,
                    "input dims {got:?} do not match model input {expected:?}"
                )
            }
            SubmitError::OffGrid { index, frac } => {
                write!(f, "input value {index} is off the 2^-{frac} grid")
            }
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue is full ({capacity} requests)")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted request did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request sat in the queue past its deadline and was not run.
    DeadlineExceeded,
    /// The engine panicked while executing the request's batch.
    EngineFailure(String),
    /// The server dropped the request without answering (it was destroyed
    /// while requests were in flight — cannot happen through
    /// [`Server::shutdown`], which drains first).
    WorkerLost,
    /// The request was accepted but then shed by overload control: a
    /// later submission pushed the queue past
    /// [`ServeConfig::shed_watermark`] and this request held the earliest
    /// deadline. Distinct from [`SubmitError::QueueFull`], which rejects
    /// *new* work at the hard capacity wall.
    Overloaded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded in queue"),
            ServeError::EngineFailure(msg) => write!(f, "engine failed: {msg}"),
            ServeError::WorkerLost => write!(f, "server dropped the request unanswered"),
            ServeError::Overloaded => write!(f, "request shed by overload control"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A ticket for one in-flight request.
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Result<Tensor, ServeError>>,
}

impl Pending {
    /// Blocks until the request is answered, returning the per-sample
    /// output capsules `[classes, dim]`.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<Tensor, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }
}

/// One queued request.
struct Request {
    model: String,
    input: Tensor,
    enqueued: Instant,
    deadline: Option<Instant>,
    tx: mpsc::Sender<Result<Tensor, ServeError>>,
}

impl Request {
    /// A request polled **at** its deadline is already expired: the
    /// deadline is the first instant the request may no longer run.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

struct QueueState {
    queue: VecDeque<Request>,
    open: bool,
}

struct Inner {
    registry: ModelRegistry,
    config: ServeConfig,
    state: Mutex<QueueState>,
    notify: Condvar,
    metrics: Metrics,
}

impl Inner {
    /// The queue lock, recovering from poisoning. A worker that panics
    /// while holding it unwinds into the respawn loop; the queue's
    /// invariants hold between individual operations, so the data is
    /// still sound and submissions must keep flowing rather than
    /// panicking in every client thread.
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Evicts the queued request with the earliest deadline (oldest
/// submission among deadline-free requests) and answers it
/// [`ServeError::Overloaded`]. Caller guarantees the queue is non-empty.
fn shed_one(inner: &Inner, st: &mut QueueState) {
    let victim = st
        .queue
        .iter()
        .enumerate()
        // Deadline-carrying requests sort before deadline-free ones;
        // within each class the earliest deadline / oldest submission
        // loses. Ties fall to the earlier queue position.
        .min_by_key(|(_, r)| (r.deadline.is_none(), r.deadline, r.enqueued))
        .map(|(i, _)| i)
        .expect("shed_one on a non-empty queue");
    let shed = st.queue.remove(victim).expect("victim index in range");
    inner.metrics.on_shed();
    let _ = shed.tx.send(Err(ServeError::Overloaded));
}

/// A running inference service over a [`ModelRegistry`].
///
/// # Examples
///
/// ```
/// use qcn_capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
/// use qcn_fixed::RoundingScheme;
/// use qcn_serve::{FakeQuantEngine, ModelRegistry, ServeConfig, Server};
/// use qcn_tensor::Tensor;
///
/// let model = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
/// let config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
/// let mut registry = ModelRegistry::new();
/// registry
///     .register("shallow", FakeQuantEngine::new(&model, config, [1, 16, 16]))
///     .unwrap();
/// let server = Server::start(registry, ServeConfig::default());
/// let pending = server.submit("shallow", Tensor::zeros([1, 16, 16])).unwrap();
/// let capsules = pending.wait().unwrap();
/// assert_eq!(capsules.dims(), &[10, 8]);
/// let metrics = server.shutdown();
/// assert_eq!(metrics.completed, 1);
/// ```
pub struct Server {
    inner: Arc<Inner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Starts the worker pool over `registry`.
    ///
    /// # Panics
    ///
    /// Panics when `config.max_batch`, `config.queue_capacity` or
    /// `config.workers` is zero.
    pub fn start(registry: ModelRegistry, config: ServeConfig) -> Server {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            config.queue_capacity >= 1,
            "queue_capacity must be at least 1"
        );
        assert!(config.workers >= 1, "workers must be at least 1");
        if let Some(mark) = config.shed_watermark {
            assert!(mark >= 1, "shed_watermark must be at least 1 when set");
        }
        let inner = Arc::new(Inner {
            metrics: Metrics::new(config.max_batch),
            registry,
            config,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                open: true,
            }),
            notify: Condvar::new(),
        });
        let handles = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qcn-serve-{i}"))
                    // Respawn-in-place: a panic that escapes `worker_loop`
                    // (engine panics are already isolated per batch; this
                    // catches queue-path panics and injected worker
                    // faults) unwinds to here, is counted, and the same
                    // thread re-enters the loop — a poisoned request
                    // costs a counter increment, not a worker.
                    .spawn(move || loop {
                        match catch_unwind(AssertUnwindSafe(|| worker_loop(&inner))) {
                            Ok(()) => break,
                            Err(_) => inner.metrics.on_worker_respawn(),
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// Submits one sample (`[c, h, w]`, matching the engine's input
    /// geometry) for model `id`. Non-blocking: accepted requests return a
    /// [`Pending`] ticket immediately; a full queue or closed server
    /// rejects synchronously.
    pub fn submit(&self, id: &str, input: Tensor) -> Result<Pending, SubmitError> {
        let engine = self
            .inner
            .registry
            .get(id)
            .ok_or_else(|| SubmitError::UnknownModel(id.to_string()))?;
        if input.dims() != engine.input_dims() {
            return Err(SubmitError::BadInput {
                expected: engine.input_dims().to_vec(),
                got: input.dims().to_vec(),
            });
        }
        if let Some(frac) = engine.input_grid() {
            if let Some(index) = input.data().iter().position(|&v| !on_grid(v, frac)) {
                return Err(SubmitError::OffGrid { index, frac });
            }
        }
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let request = Request {
            model: id.to_string(),
            input,
            enqueued: now,
            deadline: self.inner.config.request_timeout.map(|t| now + t),
            tx,
        };
        {
            let mut st = self.inner.lock_queue();
            if !st.open {
                self.inner.metrics.on_reject_closed();
                return Err(SubmitError::ShuttingDown);
            }
            if st.queue.len() >= self.inner.config.queue_capacity {
                self.inner.metrics.on_reject_full();
                return Err(SubmitError::QueueFull {
                    capacity: self.inner.config.queue_capacity,
                });
            }
            st.queue.push_back(request);
            self.inner.metrics.on_submit(st.queue.len());
            // Overload control: admit the fresh request, then shed the
            // queued work with the earliest deadline until the queue is
            // back at the watermark. The submission that overflowed may
            // itself be the victim if it holds the earliest deadline.
            if let Some(mark) = self.inner.config.shed_watermark {
                while st.queue.len() > mark {
                    shed_one(&self.inner, &mut st);
                }
            }
        }
        self.inner.notify.notify_all();
        Ok(Pending { rx })
    }

    /// Registered model ids.
    pub fn model_ids(&self) -> Vec<String> {
        self.inner
            .registry
            .ids()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Current queue depth (racy, for monitoring).
    pub fn queue_depth(&self) -> usize {
        self.inner.lock_queue().queue.len()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Prometheus text exposition (format 0.0.4) of this server's metrics
    /// followed by the process-wide library metrics (engine stage
    /// timings, thread-pool dispatch, search-cache counters). This is
    /// what the HTTP exporter ([`crate::net::MetricsHttp`]) serves and
    /// what a remote [`crate::client::Client::stats`] call returns.
    pub fn prometheus(&self) -> String {
        self.inner.metrics.render_prometheus()
    }

    /// The shared metrics sink (the socket front-end records its wire
    /// counters into the same snapshot).
    pub(crate) fn metrics_sink(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Graceful shutdown: stop accepting submissions, let the workers
    /// drain every queued request, join them, and return the final
    /// metrics. Idempotent — later calls just re-snapshot.
    pub fn shutdown(&self) -> MetricsSnapshot {
        {
            let mut st = self.inner.lock_queue();
            st.open = false;
        }
        self.inner.notify.notify_all();
        let handles: Vec<_> = {
            let mut guard = self.handles.lock().expect("serve handles lock");
            guard.drain(..).collect()
        };
        for handle in handles {
            handle.join().expect("serve worker panicked");
        }
        self.inner.metrics.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            let mut st = self.inner.lock_queue();
            st.open = false;
        }
        self.inner.notify.notify_all();
        let handles: Vec<_> = {
            let mut guard = self.handles.lock().expect("serve handles lock");
            guard.drain(..).collect()
        };
        for handle in handles {
            // Swallow worker panics on the drop path (shutdown() surfaces
            // them); panicking in Drop would abort.
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.inner.registry.ids())
            .field("config", &self.inner.config)
            .finish()
    }
}

/// One worker: wait for work, form a batch, execute, route responses.
fn worker_loop(inner: &Inner) {
    loop {
        let mut st = inner.lock_queue();
        // Wait for a live head request (answering expired ones as we go),
        // or exit once the server is closed *and* drained.
        let first = loop {
            let now = Instant::now();
            match st.queue.pop_front() {
                Some(req) if req.expired(now) => {
                    inner.metrics.on_expired();
                    let _ = req.tx.send(Err(ServeError::DeadlineExceeded));
                }
                Some(req) => break req,
                None => {
                    if !st.open {
                        return;
                    }
                    st = inner
                        .notify
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        };
        let batch_deadline = first.enqueued + inner.config.batch_window;
        let model = first.model.clone();
        let mut batch = vec![first];
        // Dynamic batch formation: gather same-model requests until the
        // batch is full or the head request's window elapses. The lock is
        // released while waiting, so submissions and other workers
        // proceed; a closed server skips the wait and drains immediately.
        loop {
            gather_matching(inner, &mut st, &model, &mut batch);
            if batch.len() >= inner.config.max_batch || !st.open {
                break;
            }
            let now = Instant::now();
            let Some(remaining) = batch_deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            let (guard, _timeout) = inner
                .notify
                .wait_timeout(st, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
        }
        inner.metrics.on_queue_depth(st.queue.len());
        drop(st);
        // Chaos site `serve.dispatch`: artificial latency between batch
        // formation and execution (lock released, so only this batch
        // stalls). `serve.worker`: panic the worker outside the engine's
        // own catch_unwind — the batch's tickets resolve to `WorkerLost`
        // and the respawn loop revives the thread.
        qcn_chaos::hit("serve.dispatch");
        if qcn_chaos::should_panic("serve.worker") {
            panic!("qcn-chaos: injected panic at serve.worker");
        }
        let engine = inner
            .registry
            .get(&model)
            .expect("submit validated the model id");
        execute_batch(inner, engine.as_ref(), batch);
    }
}

/// Moves queued requests for `model` into `batch` (up to `max_batch`),
/// answering expired ones instead of batching them.
///
/// One full rotation of the queue: every request is popped once and either
/// joins the batch or is pushed back in arrival order — O(n), where the
/// earlier mid-queue `VecDeque::remove` degenerated to O(n²) on queues
/// dominated by other models. Per-model FIFO order is preserved for both
/// the batched and the remaining requests.
fn gather_matching(inner: &Inner, st: &mut QueueState, model: &str, batch: &mut Vec<Request>) {
    let now = Instant::now();
    for _ in 0..st.queue.len() {
        let Some(req) = st.queue.pop_front() else {
            break;
        };
        if batch.len() < inner.config.max_batch && req.model == model {
            if req.expired(now) {
                inner.metrics.on_expired();
                let _ = req.tx.send(Err(ServeError::DeadlineExceeded));
            } else {
                batch.push(req);
            }
        } else {
            st.queue.push_back(req);
        }
    }
}

/// Runs one formed batch on `engine` as one fused kernel invocation
/// (bit-exact per the batch-fusion contract) and routes the per-request
/// results; every request is stamped with the batch's completion.
fn execute_batch(inner: &Inner, engine: &dyn ServeEngine, batch: Vec<Request>) {
    let b = batch.len();
    let out_dims = engine.output_dims().to_vec();
    let out_len: usize = out_dims.iter().product();
    let outputs = catch_unwind(AssertUnwindSafe(|| {
        let sample_len: usize = engine.input_dims().iter().product();
        let mut data = Vec::with_capacity(b * sample_len);
        for req in &batch {
            data.extend_from_slice(req.input.data());
        }
        let mut dims = vec![b];
        dims.extend_from_slice(engine.input_dims());
        let fused = Tensor::from_vec(data, dims).expect("batch assembly");
        let out = engine.infer_batch(&fused);
        (0..b)
            .map(|s| {
                let split = out.data()[s * out_len..(s + 1) * out_len].to_vec();
                Tensor::from_vec(split, out_dims.clone()).expect("batch split")
            })
            .collect::<Vec<_>>()
    }));
    match outputs {
        Ok(outputs) => {
            let done = Instant::now();
            let latencies: Vec<u64> = batch
                .iter()
                .map(|req| done.duration_since(req.enqueued).as_micros() as u64)
                .collect();
            inner.metrics.on_batch(b, &latencies);
            for (req, out) in batch.into_iter().zip(outputs) {
                let _ = req.tx.send(Ok(out));
            }
        }
        Err(panic) => {
            let msg = panic_message(&*panic);
            inner.metrics.on_failed(b);
            for req in batch {
                let _ = req.tx.send(Err(ServeError::EngineFailure(msg.clone())));
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(model: &str, tag: f32) -> (Request, mpsc::Receiver<Result<Tensor, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        let req = Request {
            model: model.to_string(),
            input: Tensor::full([1], tag),
            enqueued: Instant::now(),
            deadline: None,
            tx,
        };
        (req, rx)
    }

    fn test_inner(max_batch: usize) -> Inner {
        Inner {
            registry: ModelRegistry::new(),
            metrics: Metrics::new(max_batch),
            config: ServeConfig {
                max_batch,
                ..ServeConfig::default()
            },
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                open: true,
            }),
            notify: Condvar::new(),
        }
    }

    /// The deadline is the first instant a request may no longer run: a
    /// poll exactly at the deadline expires it (regression for the old
    /// `now > d` boundary, which still executed at-deadline requests).
    #[test]
    fn request_polled_exactly_at_deadline_is_expired() {
        let (mut req, _rx) = request("m", 0.0);
        let d = Instant::now() + Duration::from_millis(5);
        req.deadline = Some(d);
        assert!(!req.expired(d - Duration::from_nanos(1)));
        assert!(req.expired(d));
        assert!(req.expired(d + Duration::from_nanos(1)));
        req.deadline = None;
        assert!(!req.expired(d + Duration::from_secs(1)));
    }

    /// `gather_matching` takes same-model requests in arrival order and
    /// leaves everything else queued in arrival order — for every request,
    /// not just the scanned prefix.
    #[test]
    fn gather_preserves_per_model_fifo_order_in_mixed_queues() {
        let inner = test_inner(2);
        let mut st = QueueState {
            queue: VecDeque::new(),
            open: true,
        };
        let mut rxs = Vec::new();
        // Arrival order: a0, b1, a2, b3, a4, c5.
        for (model, tag) in [("a", 0.0), ("b", 1.0), ("a", 2.0), ("b", 3.0), ("a", 4.0)] {
            let (req, rx) = request(model, tag);
            st.queue.push_back(req);
            rxs.push(rx);
        }
        let (req, rx) = request("c", 5.0);
        st.queue.push_back(req);
        rxs.push(rx);

        let mut batch = Vec::new();
        gather_matching(&inner, &mut st, "a", &mut batch);
        // max_batch = 2: the two oldest "a" requests, in order.
        let batch_tags: Vec<f32> = batch.iter().map(|r| r.input.data()[0]).collect();
        assert_eq!(batch_tags, vec![0.0, 2.0]);
        // The rest keeps arrival order, including the "a" that missed the
        // batch: b1, b3, a4, c5.
        let rest_tags: Vec<f32> = st.queue.iter().map(|r| r.input.data()[0]).collect();
        assert_eq!(rest_tags, vec![1.0, 3.0, 4.0, 5.0]);

        // A second gather for "b" drains both b's, still in order.
        let mut batch = Vec::new();
        gather_matching(&inner, &mut st, "b", &mut batch);
        let batch_tags: Vec<f32> = batch.iter().map(|r| r.input.data()[0]).collect();
        assert_eq!(batch_tags, vec![1.0, 3.0]);
        let rest_tags: Vec<f32> = st.queue.iter().map(|r| r.input.data()[0]).collect();
        assert_eq!(rest_tags, vec![4.0, 5.0]);
    }

    /// Expired same-model requests are answered during gathering, not
    /// batched and not left behind.
    #[test]
    fn gather_answers_expired_matching_requests() {
        let inner = test_inner(8);
        let mut st = QueueState {
            queue: VecDeque::new(),
            open: true,
        };
        let (mut stale, stale_rx) = request("a", 0.0);
        stale.deadline = Some(Instant::now() - Duration::from_millis(1));
        let (fresh, _fresh_rx) = request("a", 1.0);
        st.queue.push_back(stale);
        st.queue.push_back(fresh);
        let mut batch = Vec::new();
        gather_matching(&inner, &mut st, "a", &mut batch);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].input.data()[0], 1.0);
        assert!(st.queue.is_empty());
        assert_eq!(stale_rx.try_recv(), Ok(Err(ServeError::DeadlineExceeded)));
        assert_eq!(inner.metrics.snapshot().expired, 1);
    }

    /// A `Pending` whose server side vanished without answering resolves
    /// to `WorkerLost` on both the blocking and polling paths.
    #[test]
    fn orphaned_pending_reports_worker_lost() {
        let (tx, rx) = mpsc::channel::<Result<Tensor, ServeError>>();
        let pending = Pending { rx };
        drop(tx);
        assert_eq!(
            pending.try_wait(),
            Some(Err(ServeError::WorkerLost)),
            "poll must surface the dropped sender"
        );
        assert_eq!(pending.wait(), Err(ServeError::WorkerLost));
    }

    /// `shed_one` evicts the earliest deadline first, then (among
    /// deadline-free requests) the oldest submission, answering each
    /// victim `Overloaded`.
    #[test]
    fn shed_one_prefers_earliest_deadline_then_oldest_submission() {
        let inner = test_inner(8);
        let mut st = QueueState {
            queue: VecDeque::new(),
            open: true,
        };
        let now = Instant::now();
        let mut rxs = Vec::new();
        // Arrival order: no-deadline (oldest), deadline now+50ms,
        // deadline now+10ms, no-deadline (newest).
        for (tag, deadline) in [
            (0.0, None),
            (1.0, Some(now + Duration::from_millis(50))),
            (2.0, Some(now + Duration::from_millis(10))),
            (3.0, None),
        ] {
            let (mut req, rx) = request("m", tag);
            req.deadline = deadline;
            st.queue.push_back(req);
            rxs.push(rx);
        }
        // Eviction order: tightest deadline (2), next deadline (1), then
        // oldest deadline-free (0), then (3).
        for expect in [2usize, 1, 0, 3] {
            shed_one(&inner, &mut st);
            assert_eq!(
                rxs[expect].try_recv(),
                Ok(Err(ServeError::Overloaded)),
                "victim {expect}"
            );
        }
        assert!(st.queue.is_empty());
        assert_eq!(inner.metrics.snapshot().shed, 4);
    }

    /// End to end: a burst past the watermark sheds with `Overloaded`
    /// while the hard capacity stays out of reach, and everything not
    /// shed completes normally.
    #[test]
    fn burst_past_watermark_sheds_overloaded_not_queue_full() {
        let mut registry = ModelRegistry::new();
        registry
            .register(
                "sleep",
                SleepEngine {
                    dims: vec![1, 1, 1],
                    out: vec![1, 1],
                    delay: Duration::from_millis(20),
                },
            )
            .unwrap();
        let server = Server::start(
            registry,
            ServeConfig {
                max_batch: 1,
                queue_capacity: 64,
                batch_window: Duration::from_millis(1),
                request_timeout: None,
                workers: 1,
                shed_watermark: Some(2),
            },
        );
        let pending: Vec<Pending> = (0..10)
            .map(|_| server.submit("sleep", Tensor::zeros([1, 1, 1])).unwrap())
            .collect();
        let mut ok = 0u64;
        let mut shed = 0u64;
        for p in pending {
            match p.wait() {
                Ok(_) => ok += 1,
                Err(ServeError::Overloaded) => shed += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert_eq!(ok + shed, 10);
        assert!(shed >= 1, "a 10-deep burst over watermark 2 must shed");
        assert!(ok >= 1, "shedding must not starve the queue entirely");
        let m = server.shutdown();
        assert_eq!(m.shed, shed);
        assert_eq!(m.completed, ok);
        assert_eq!(m.rejected_full, 0, "capacity wall must stay untouched");
    }

    /// An engine whose every invocation takes a fixed, visible amount of
    /// time.
    struct SleepEngine {
        dims: Vec<usize>,
        out: Vec<usize>,
        delay: Duration,
    }

    impl ServeEngine for SleepEngine {
        fn kind(&self) -> &str {
            "sleep"
        }
        fn input_dims(&self) -> &[usize] {
            &self.dims
        }
        fn output_dims(&self) -> &[usize] {
            &self.out
        }
        fn infer_batch(&self, x: &Tensor) -> Tensor {
            std::thread::sleep(self.delay);
            Tensor::zeros([x.dims()[0], 1, 1])
        }
    }
}
