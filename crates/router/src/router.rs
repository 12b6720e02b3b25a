//! The router front-end and dispatch engine.
//!
//! The client side is the shared pipelined wire front-end
//! (`qcn_serve::net::FrontEnd`, named `"router"`): it accepts, validates
//! every frame before the router sees it (malformed bytes must never
//! reach a shared upstream channel), and answers in submission order.
//! The router's part is its [`Handler`]: stats frames answer with the
//! router's own metrics, and inference requests pass the admission budget
//! and are dispatched, the writer waiting on each request's response
//! channel.
//!
//! Dispatch picks a backend (least-outstanding, power-of-two tie-break,
//! ejected replicas skipped), forwards the raw payload over a pooled
//! channel, and on transport failure retries idempotent inference on a
//! *different* replica with capped exponential backoff — safe because
//! both engines are bit-deterministic, so any replica returns the same
//! bits. A replica answering `ShuttingDown` is ejected immediately and
//! the request fails over the same way. Only when the retry budget is
//! exhausted does the client see an error frame.

use crate::backend::{Backend, Task, TaskKind};
use crate::balance::{self, XorShift};
use crate::budget::TokenBucket;
use crate::config::RouterConfig;
use crate::health::HealthTracker;
use crate::metrics::RouterMetrics;
use qcn_serve::net::{FrontEnd, Handler, WriterItem};
use qcn_serve::wire::{
    self, encode_response, encode_stats_request, encode_stats_response, status, WireError,
    WireFrame, WireResponse,
};
use qcn_serve::{ServeError, SubmitError};
use qcn_telemetry::{debug, info, warn};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Shared state every router thread hangs off.
pub(crate) struct RouterCore {
    pub cfg: RouterConfig,
    pub backends: Vec<Arc<Backend>>,
    pub metrics: RouterMetrics,
    /// Admission truth (the gauge mirrors it for exposition).
    inflight: AtomicUsize,
    open: AtomicBool,
    rng: Mutex<XorShift>,
}

impl RouterCore {
    /// Picks the replica for the next attempt: available backends first,
    /// the previously failed one excluded while an alternative exists,
    /// and — as a last resort when everything is ejected — any backend,
    /// so a fleet-wide blip degrades to "try anyway" instead of instant
    /// failure.
    fn pick(&self, avoid: Option<usize>) -> Arc<Backend> {
        let available: Vec<usize> = (0..self.backends.len())
            .filter(|&i| {
                self.backends[i]
                    .health
                    .lock()
                    .expect("health lock")
                    .is_available()
            })
            .collect();
        let mut candidates: Vec<usize> = available
            .iter()
            .copied()
            .filter(|&i| Some(i) != avoid)
            .collect();
        if candidates.is_empty() {
            candidates = available;
        }
        if candidates.is_empty() {
            candidates = (0..self.backends.len())
                .filter(|&i| Some(i) != avoid)
                .collect();
        }
        if candidates.is_empty() {
            candidates = (0..self.backends.len()).collect();
        }
        let outstanding: Vec<i64> = candidates
            .iter()
            .map(|&i| self.backends[i].outstanding())
            .collect();
        let choice = {
            let mut rng = self.rng.lock().expect("balancer rng lock");
            balance::pick(&outstanding, &mut rng)
        };
        Arc::clone(&self.backends[candidates[choice]])
    }

    /// Records a transport-level failure against a backend, ejecting it
    /// when the consecutive-failure threshold trips.
    fn note_failure(&self, backend: &Backend) {
        let ejected = backend
            .health
            .lock()
            .expect("health lock")
            .on_failure(Instant::now());
        if ejected {
            backend.m.ejections.inc();
            backend.m.healthy.set(0);
            warn!(
                "qcn-router",
                "ejected backend {} after consecutive failures", backend.addr
            );
        }
    }

    /// Charges one retry to `backend`'s token bucket. `true` means the
    /// retry may proceed; `false` means the budget is exhausted and the
    /// caller must fail the task typed instead of re-forwarding it —
    /// this is what keeps a partial outage from amplifying into a retry
    /// storm against the surviving replicas.
    pub(crate) fn charge_retry(&self, backend: &Backend) -> bool {
        if backend.budget.try_take() {
            backend.m.retries.inc();
            true
        } else {
            backend.m.budget_exhausted.inc();
            false
        }
    }

    fn note_success(&self, backend: &Backend) {
        let recovered = backend.health.lock().expect("health lock").on_success();
        if recovered {
            backend.m.healthy.set(1);
            info!("qcn-router", "backend {} is healthy again", backend.addr);
        }
    }

    /// Called by a channel reader for every correlated response.
    pub(crate) fn complete(
        self: &Arc<RouterCore>,
        mut task: Task,
        payload: Vec<u8>,
        backend: &Arc<Backend>,
    ) {
        if task.kind == TaskKind::Probe {
            let _ = task.done.send(payload);
            return;
        }
        if wire::response_tag(&payload) == Some(status::SHUTTING_DOWN) {
            // The replica answered, but is draining: it will be gone in
            // moments. Eject it and fail the request over instead of
            // bouncing the drain signal to a client that targeted the
            // fleet, not this replica.
            let ejected = backend
                .health
                .lock()
                .expect("health lock")
                .force_eject(Instant::now());
            if ejected {
                backend.m.ejections.inc();
                backend.m.healthy.set(0);
                info!(
                    "qcn-router",
                    "backend {} is draining; ejected", backend.addr
                );
            }
            task.attempts += 1;
            if task.attempts > self.cfg.max_retries || !self.charge_retry(backend) {
                // Retry budget gone: relay the typed drain signal as-is.
                self.relay(task, payload, backend);
                return;
            }
            dispatch(self, vec![task]);
            return;
        }
        self.note_success(backend);
        self.relay(task, payload, backend);
    }

    /// Delivers a backend response to the client, restoring its id.
    fn relay(&self, task: Task, mut payload: Vec<u8>, backend: &Backend) {
        if wire::rewrite_response_id(&mut payload, task.client_id).is_err() {
            // Shorter than id+tag yet carried a correlatable id — cannot
            // happen; account it as a backend failure.
            self.fail(task, backend, "backend returned an unparseable response");
            return;
        }
        self.metrics
            .observe_latency_us(task.accepted.elapsed().as_micros() as u64);
        self.metrics.completed.inc();
        backend.m.ok.inc();
        self.finish_one();
        let _ = task.done.send(payload); // client may have hung up; fine
    }

    /// Synthesizes a failure response once the retry budget is gone.
    fn fail(&self, task: Task, backend: &Backend, why: &str) {
        let response = encode_response(&WireResponse {
            id: task.client_id,
            result: Err(WireError::Serve(ServeError::EngineFailure(format!(
                "router: {why} (after {} attempts)",
                task.attempts + 1
            )))),
        });
        self.metrics.failed.inc();
        backend.m.error.inc();
        self.finish_one();
        warn!(
            "qcn-router",
            "request {} failed: {why} (last backend {})", task.client_id, backend.addr
        );
        let _ = task.done.send(response);
    }

    fn finish_one(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.metrics.inflight.dec();
    }

    /// Called by a dying channel's reader with the drained tasks.
    pub(crate) fn on_channel_death(
        self: &Arc<RouterCore>,
        backend: &Arc<Backend>,
        tasks: Vec<Task>,
    ) {
        if !self.open.load(Ordering::SeqCst) {
            // Shutdown teardown kills channels on purpose; that is not
            // evidence against the backend, and the drained tasks have
            // no live client writer left to answer to.
            return;
        }
        self.note_failure(backend);
        if tasks.is_empty() {
            return;
        }
        debug!(
            "qcn-router",
            "channel to {} died with {} tasks in flight",
            backend.addr,
            tasks.len()
        );
        let mut retryable = Vec::new();
        for mut t in tasks {
            // Probes are never requeued — the prober's timeout records
            // the failure. Dropping the task drops its response sender.
            if t.kind != TaskKind::Infer {
                continue;
            }
            t.attempts += 1;
            if self.charge_retry(backend) {
                retryable.push(t);
            } else {
                self.fail(t, backend, "retry budget exhausted");
            }
        }
        dispatch(self, retryable);
    }
}

/// Forwards every task in `work`, retrying with backoff until each lands
/// on a backend or exhausts its budget. Runs on whichever thread noticed
/// the work (client reader on first dispatch, channel reader on
/// failover); a worklist instead of recursion so cascades stay bounded.
pub(crate) fn dispatch(core: &Arc<RouterCore>, work: Vec<Task>) {
    let mut queue = std::collections::VecDeque::from(work);
    while let Some(mut task) = queue.pop_front() {
        if task.kind == TaskKind::Probe {
            continue;
        }
        if task.attempts > core.cfg.max_retries {
            let backend = Arc::clone(&core.backends[task.last_backend]);
            core.fail(task, &backend, "no replica answered");
            continue;
        }
        if task.attempts > 0 {
            std::thread::sleep(core.cfg.backoff(task.attempts));
        }
        let avoid = (task.attempts > 0).then_some(task.last_backend);
        let backend = core.pick(avoid);
        task.last_backend = backend.idx;
        match backend.try_send(core, task) {
            Ok(()) => {}
            Err(failed) => {
                core.note_failure(&backend);
                for mut t in failed {
                    if t.kind == TaskKind::Infer {
                        t.attempts += 1;
                        if core.charge_retry(&backend) {
                            queue.push_back(t);
                        } else {
                            core.fail(t, &backend, "retry budget exhausted");
                        }
                    }
                }
            }
        }
    }
}

/// The client side: admission and dispatch on the reader, the response
/// channel on the writer.
impl Handler for RouterCore {
    type Ticket = mpsc::Receiver<Vec<u8>>;

    fn handle(self: &Arc<Self>, frame: WireFrame, payload: Vec<u8>) -> WriterItem<Self::Ticket> {
        let m = &self.metrics;
        let request = match frame {
            // Stats against the router answer with the *router's* own
            // metrics — probe a replica directly for its server view.
            WireFrame::Stats { id } => {
                m.stats_served.inc();
                return WriterItem::Ready(encode_stats_response(id, &m.render_prometheus()));
            }
            WireFrame::Infer(request) => request,
        };
        if self.inflight.fetch_add(1, Ordering::SeqCst) >= self.cfg.max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            m.rejected.inc();
            return WriterItem::Ready(encode_response(&WireResponse {
                id: request.id,
                result: Err(WireError::Submit(SubmitError::QueueFull {
                    capacity: self.cfg.max_inflight,
                })),
            }));
        }
        m.inflight.inc();
        // Dispatching before the front-end queues the ticket is safe: the
        // channel buffers an instant answer, and the writer resolves
        // tickets strictly in queue order.
        let (done, answer) = mpsc::channel();
        let task = Task {
            kind: TaskKind::Infer,
            client_id: request.id,
            payload,
            done,
            attempts: 0,
            accepted: Instant::now(),
            last_backend: 0,
        };
        dispatch(self, vec![task]);
        WriterItem::Wait(request.id, answer)
    }

    fn resolve(&self, id: u64, answer: Self::Ticket) -> Vec<u8> {
        answer.recv().unwrap_or_else(|_| {
            // The task died without an answer (shutdown race): the typed
            // "your request fell into the gap" error.
            encode_response(&WireResponse {
                id,
                result: Err(WireError::Serve(ServeError::WorkerLost)),
            })
        })
    }
}

/// A point-in-time view of one backend's routing state.
#[derive(Debug, Clone)]
pub struct BackendSnapshot {
    /// The replica's address.
    pub addr: SocketAddr,
    /// Responses relayed from this backend.
    pub ok: u64,
    /// Requests that died with this backend as their last attempt.
    pub error: u64,
    /// Retry attempts charged to failures of this backend.
    pub retries: u64,
    /// Retries denied because this backend's retry budget was empty.
    pub budget_exhausted: u64,
    /// Transitions into the ejected state.
    pub ejections: u64,
    /// Requests currently awaiting this backend.
    pub outstanding: i64,
    /// Whether the balancer may route here right now.
    pub available: bool,
    /// Successful health probes.
    pub health_ok: u64,
    /// Failed health probes.
    pub health_fail: u64,
    /// Upstream connections dialed.
    pub connects: u64,
}

/// A point-in-time view of the router.
#[derive(Debug, Clone)]
pub struct RouterSnapshot {
    /// Seconds since the router started.
    pub uptime_secs: f64,
    /// Backend responses relayed to clients.
    pub completed: u64,
    /// Router-synthesized failure responses.
    pub failed: u64,
    /// Requests rejected at admission with `QueueFull`.
    pub rejected: u64,
    /// Requests admitted and not yet answered.
    pub inflight: i64,
    /// Client connections accepted over the router's lifetime.
    pub connections_accepted: u64,
    /// Client connections currently open.
    pub connections_active: i64,
    /// Client frames that failed to parse.
    pub malformed_frames: u64,
    /// Wire bytes read from clients.
    pub bytes_in: u64,
    /// Wire bytes written to clients.
    pub bytes_out: u64,
    /// Median end-to-end latency (µs) over the recent window.
    pub latency_p50_us: u64,
    /// 95th-percentile end-to-end latency (µs).
    pub latency_p95_us: u64,
    /// 99th-percentile end-to-end latency (µs).
    pub latency_p99_us: u64,
    /// Per-backend state, in configuration order.
    pub backends: Vec<BackendSnapshot>,
}

/// A replica-aware routing tier speaking the [`qcn_serve::wire`]
/// protocol on both sides — `qcn_serve::client::Client` connects to it
/// exactly as it would to a single `SocketServer`.
///
/// See the crate docs for the full semantics. Shutdown is graceful and
/// runs on drop.
pub struct Router {
    core: Arc<RouterCore>,
    front: FrontEnd,
    health: Mutex<Option<JoinHandle<()>>>,
    health_stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Router {
    /// Binds `addr` and starts routing to `config.backends`. Bind to
    /// port 0 to let the OS pick (see [`local_addr`](Self::local_addr)).
    pub fn bind(config: RouterConfig, addr: impl ToSocketAddrs) -> std::io::Result<Router> {
        Router::from_listener(config, TcpListener::bind(addr)?)
    }

    /// Starts routing on an already-bound listener (the
    /// [`crate::reuse::bind_reusable`] hook).
    pub fn from_listener(config: RouterConfig, listener: TcpListener) -> std::io::Result<Router> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
        let local_addr = listener.local_addr()?;
        let metrics = RouterMetrics::new();
        let backends: Vec<Arc<Backend>> = config
            .backends
            .iter()
            .enumerate()
            .map(|(idx, addr)| {
                Arc::new(Backend::new(
                    idx,
                    *addr,
                    HealthTracker::new(config.eject_after, config.eject_cooldown),
                    metrics.backend(addr),
                    TokenBucket::new(config.retry_burst, config.retry_refill_per_sec),
                    config.channels_per_backend,
                ))
            })
            .collect();
        // Seed from the bound port: deterministic enough for tests, and
        // distinct across routers in one process.
        let seed = 0x9E37_79B9_7F4A_7C15 ^ u64::from(local_addr.port());
        let core = Arc::new(RouterCore {
            cfg: config,
            backends,
            metrics,
            inflight: AtomicUsize::new(0),
            open: AtomicBool::new(true),
            rng: Mutex::new(XorShift::new(seed)),
        });
        let front = FrontEnd::start(listener, Arc::clone(&core), core.metrics.wire.clone())?;
        let health_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let health = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&health_stop);
            std::thread::Builder::new()
                .name("qcn-router-health".to_string())
                .spawn(move || health_loop(&core, &stop))?
        };
        info!(
            "qcn-router",
            "listening on {local_addr}, {} backends",
            core.backends.len()
        );
        Ok(Router {
            core,
            front,
            health: Mutex::new(Some(health)),
            health_stop,
        })
    }

    /// The bound address (resolves port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The router's live metrics as Prometheus text — also what a wire
    /// stats request against the router returns.
    pub fn prometheus(&self) -> String {
        self.core.metrics.render_prometheus()
    }

    /// A point-in-time snapshot of the routing state.
    pub fn snapshot(&self) -> RouterSnapshot {
        let m = &self.core.metrics;
        let [p50, p95, p99] = m.latency_window.quantiles();
        RouterSnapshot {
            uptime_secs: m.uptime_secs(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            rejected: m.rejected.get(),
            inflight: m.inflight.get(),
            connections_accepted: m.wire.accepted.get(),
            connections_active: m.wire.active.get(),
            malformed_frames: m.wire.malformed.get(),
            bytes_in: m.wire.bytes_in.get(),
            bytes_out: m.wire.bytes_out.get(),
            latency_p50_us: p50,
            latency_p95_us: p95,
            latency_p99_us: p99,
            backends: self
                .core
                .backends
                .iter()
                .map(|b| BackendSnapshot {
                    addr: b.addr,
                    ok: b.m.ok.get(),
                    error: b.m.error.get(),
                    retries: b.m.retries.get(),
                    budget_exhausted: b.m.budget_exhausted.get(),
                    ejections: b.m.ejections.get(),
                    outstanding: b.outstanding(),
                    available: b.health.lock().expect("health lock").is_available(),
                    health_ok: b.m.health_ok.get(),
                    health_fail: b.m.health_fail.get(),
                    connects: b.m.connects.get(),
                })
                .collect(),
        }
    }

    /// Graceful shutdown: stop accepting, half-close client reads so no
    /// new requests arrive, let the writers drain every admitted
    /// request's response, join the client threads, then tear down the
    /// upstream pools and the health checker. Idempotent. Returns the
    /// final snapshot.
    pub fn shutdown(&self) -> RouterSnapshot {
        self.core.open.store(false, Ordering::SeqCst);
        self.front.shutdown();
        {
            let (lock, cv) = &*self.health_stop;
            *lock.lock().expect("health stop lock") = true;
            cv.notify_all();
        }
        if let Some(handle) = self.health.lock().expect("health handle lock").take() {
            let _ = handle.join();
        }
        for backend in &self.core.backends {
            // Client writers are joined: any stragglers have no receiver
            // left, so drained tasks are dropped, not redispatched.
            let _ = backend.teardown();
        }
        self.snapshot()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("local_addr", &self.local_addr())
            .field("backends", &self.core.cfg.backends)
            .field("open", &self.core.open.load(Ordering::Relaxed))
            .finish()
    }
}

/// The background health checker: probes every due backend each tick
/// with a wire stats request and drives the ejection state machine.
fn health_loop(core: &Arc<RouterCore>, stop: &Arc<(Mutex<bool>, Condvar)>) {
    loop {
        {
            let (lock, cv) = &**stop;
            let mut stopped = lock.lock().expect("health stop lock");
            if !*stopped {
                stopped = cv
                    .wait_timeout(stopped, core.cfg.health_interval)
                    .expect("health stop wait")
                    .0;
            }
            if *stopped {
                return;
            }
        }
        for backend in &core.backends {
            let due = backend
                .health
                .lock()
                .expect("health lock")
                .probe_due(Instant::now());
            if due {
                probe(core, backend);
            }
        }
    }
}

/// One health probe: a stats request through the backend's own pooled
/// channel (which doubles as the reconnect path for ejected replicas).
fn probe(core: &Arc<RouterCore>, backend: &Arc<Backend>) {
    // Chaos site `router.probe`: the probe fails outright (simulating a
    // timeout or flapping replica) without touching the transport, so
    // the ejection state machine is exercised on its own.
    if qcn_chaos::hit("router.probe").is_some() {
        backend.m.health_fail.inc();
        core.note_failure(backend);
        return;
    }
    let (tx, rx) = mpsc::channel();
    let task = Task {
        kind: TaskKind::Probe,
        client_id: 0,
        payload: encode_stats_request(0),
        done: tx,
        attempts: 0,
        accepted: Instant::now(),
        last_backend: backend.idx,
    };
    match backend.try_send(core, task) {
        Err(failed) => {
            backend.m.health_fail.inc();
            core.note_failure(backend);
            // A dead channel may have carried live requests; fail them
            // over (the probe itself is filtered out by dispatch).
            let mut retryable = Vec::new();
            for mut t in failed {
                if t.kind != TaskKind::Infer {
                    continue;
                }
                t.attempts += 1;
                if core.charge_retry(backend) {
                    retryable.push(t);
                } else {
                    core.fail(t, backend, "retry budget exhausted");
                }
            }
            dispatch(core, retryable);
        }
        Ok(()) => match rx.recv_timeout(core.cfg.probe_timeout) {
            Ok(payload) if wire::response_tag(&payload) == Some(status::STATS) => {
                backend.m.health_ok.inc();
                core.note_success(backend);
            }
            _ => {
                // Timeout, or a non-stats answer to a stats request. The
                // channel reader notices dead transports on its own; the
                // probe only records the verdict.
                backend.m.health_fail.inc();
                core.note_failure(backend);
            }
        },
    }
}
