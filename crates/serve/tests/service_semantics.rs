//! Service-layer semantics: batch-fusion bit-exactness, backpressure,
//! per-request deadlines, panic isolation, and drain-on-shutdown.
//!
//! These tests pin the *mechanisms*; the cross-engine multi-client soak
//! (arrival-order / thread-matrix determinism) lives in the workspace
//! suite `tests/serving_determinism.rs`.

use qcapsnets::export::pack_model;
use qcn_capsnet::{CapsNet, ModelQuant, QuantCtx, ShallowCaps, ShallowCapsConfig};
use qcn_fixed::RoundingScheme;
use qcn_intinfer::{IntModel, UnitMode};
use qcn_serve::{
    FakeQuantEngine, IntEngine, ModelRegistry, ServeConfig, ServeEngine, Server, SubmitError,
};
use qcn_tensor::Tensor;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn shallow_config(scheme: RoundingScheme) -> ModelQuant {
    let mut config = ModelQuant::uniform(3, 5, scheme);
    for lq in &mut config.layers {
        lq.dr_frac = Some(4);
    }
    config.seed = 0xBEEF;
    config
}

/// A deterministic on-grid sample `[1, 16, 16]` at Q1.5.
fn sample(seed: i64) -> Tensor {
    Tensor::from_fn([1, 16, 16], |idx| {
        let i = (idx[1] * 16 + idx[2]) as i64;
        ((i * 37 + seed * 11).rem_euclid(32)) as f32 / 32.0
    })
}

/// Batched engine invocation must equal per-sample invocations bit for bit
/// for every rounding scheme, stochastic rounding included — the
/// assumption the server's batch fusion rests on, for both datapaths.
#[test]
fn batch_fusion_is_bit_exact_for_every_scheme() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    for scheme in RoundingScheme::EXTENDED {
        let config = shallow_config(scheme);
        let fq = FakeQuantEngine::new(&model, config.clone(), [1, 16, 16]);
        let int_model = IntModel::load(&model.descriptor(), &pack_model(&model, &config)).unwrap();
        let int = IntEngine::new(int_model, 5, UnitMode::FloatExact, [1, 16, 16]);
        let engines: [&dyn ServeEngine; 2] = [&fq, &int];
        for engine in engines {
            let samples: Vec<Tensor> = (0..5).map(sample).collect();
            let mut data = Vec::new();
            for s in &samples {
                data.extend_from_slice(s.data());
            }
            let fused = Tensor::from_vec(data, [5, 1, 16, 16]).unwrap();
            let batched = engine.infer_batch(&fused);
            let out_len: usize = engine.output_dims().iter().product();
            for (i, s) in samples.iter().enumerate() {
                let single = Tensor::from_vec(s.data().to_vec(), [1, 1, 16, 16]).unwrap();
                let alone = engine.infer_batch(&single);
                assert_eq!(
                    alone.data(),
                    &batched.data()[i * out_len..(i + 1) * out_len],
                    "{scheme:?} {} sample {i}",
                    engine.kind()
                );
            }
        }
    }
}

/// An input off the integer engine's grid is rejected at submit with a
/// typed error, so it cannot fail the batch it would have joined: the
/// on-grid requests around it still fuse into one batch and answer
/// bit-identically to a lone inference.
#[test]
fn off_grid_request_is_rejected_without_failing_its_batch() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let config = shallow_config(RoundingScheme::RoundToNearest);
    let int_model = IntModel::load(&model.descriptor(), &pack_model(&model, &config)).unwrap();
    let engine = IntEngine::new(int_model, 5, UnitMode::FloatExact, [1, 16, 16]);
    let want: Vec<Tensor> = [1, 2]
        .iter()
        .map(|&i| {
            engine
                .infer_batch(&Tensor::from_vec(sample(i).data().to_vec(), [1, 1, 16, 16]).unwrap())
        })
        .collect();
    let mut registry = ModelRegistry::new();
    registry.register("int", engine).unwrap();
    let server = Server::start(
        registry,
        ServeConfig {
            max_batch: 2,
            batch_window: Duration::from_secs(5),
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let first = server.submit("int", sample(1)).unwrap();
    let mut bad = sample(9);
    bad.data_mut()[17] = 0.01;
    match server.submit("int", bad) {
        Err(SubmitError::OffGrid { index, frac }) => assert_eq!((index, frac), (17, 5)),
        other => panic!("expected OffGrid, got {other:?}"),
    }
    let second = server.submit("int", sample(2)).unwrap();
    for (pending, want) in [first, second].into_iter().zip(&want) {
        let got = pending.wait().expect("on-grid request succeeds");
        assert_eq!(got.data(), want.data());
    }
    let m = server.shutdown();
    assert_eq!(m.batch_histogram, vec![0, 1], "the two good requests fused");
    assert_eq!(m.failed, 0);
}

/// An engine whose execution blocks until the test releases it, plus a
/// "started" signal — makes queue states deterministic in tests.
struct GatedEngine {
    inner: FakeQuantEngine<ShallowCaps>,
    gate: Arc<(Mutex<GateState>, Condvar)>,
}

#[derive(Default)]
struct GateState {
    open: bool,
    started: usize,
}

#[derive(Clone)]
struct Gate(Arc<(Mutex<GateState>, Condvar)>);

impl Gate {
    fn new() -> Self {
        Gate(Arc::new((Mutex::new(GateState::default()), Condvar::new())))
    }

    fn open(&self) {
        let (lock, cv) = &*self.0;
        lock.lock().unwrap().open = true;
        cv.notify_all();
    }

    fn wait_started(&self, n: usize) {
        let (lock, cv) = &*self.0;
        let mut st = lock.lock().unwrap();
        while st.started < n {
            st = cv.wait(st).unwrap();
        }
    }
}

impl ServeEngine for GatedEngine {
    fn kind(&self) -> &str {
        "gated"
    }
    fn input_dims(&self) -> &[usize] {
        self.inner.input_dims()
    }
    fn output_dims(&self) -> &[usize] {
        self.inner.output_dims()
    }
    fn infer_batch(&self, x: &Tensor) -> Tensor {
        let (lock, cv) = &*self.gate;
        {
            let mut st = lock.lock().unwrap();
            st.started += 1;
            cv.notify_all();
            while !st.open {
                st = cv.wait(st).unwrap();
            }
        }
        self.inner.infer_batch(x)
    }
}

fn gated_server(config: ServeConfig) -> (Server, Gate) {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let gate = Gate::new();
    let engine = GatedEngine {
        inner: FakeQuantEngine::new(
            &model,
            shallow_config(RoundingScheme::RoundToNearest),
            [1, 16, 16],
        ),
        gate: Arc::clone(&gate.0),
    };
    let mut registry = ModelRegistry::new();
    registry.register("gated", engine).unwrap();
    (Server::start(registry, config), gate)
}

#[test]
fn queue_saturation_rejects_with_queue_full() {
    let (server, gate) = gated_server(ServeConfig {
        max_batch: 1,
        queue_capacity: 3,
        batch_window: Duration::ZERO,
        request_timeout: None,
        workers: 1,
        shed_watermark: None,
    });
    // First request occupies the single worker (blocked in the gate), so
    // the queue is empty and its capacity fully available.
    let busy = server.submit("gated", sample(0)).unwrap();
    gate.wait_started(1);
    let queued: Vec<_> = (1..=3)
        .map(|i| server.submit("gated", sample(i)).unwrap())
        .collect();
    // Queue is at capacity: the next submission must be rejected, typed.
    match server.submit("gated", sample(9)) {
        Err(SubmitError::QueueFull { capacity: 3 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(server.metrics().rejected_full, 1);
    // Releasing the gate drains everything that was accepted.
    gate.open();
    assert!(busy.wait().is_ok());
    for p in queued {
        assert!(p.wait().is_ok());
    }
    let m = server.shutdown();
    assert_eq!(m.completed, 4);
    assert_eq!(m.max_queue_depth, 3);
}

#[test]
fn expired_requests_get_deadline_errors_without_running() {
    let (server, gate) = gated_server(ServeConfig {
        max_batch: 1,
        queue_capacity: 8,
        batch_window: Duration::ZERO,
        request_timeout: Some(Duration::from_millis(1)),
        workers: 1,
        shed_watermark: None,
    });
    let busy = server.submit("gated", sample(0)).unwrap();
    gate.wait_started(1);
    let stale = server.submit("gated", sample(1)).unwrap();
    // Let the queued request expire while the worker is blocked.
    std::thread::sleep(Duration::from_millis(20));
    gate.open();
    assert!(busy.wait().is_ok());
    assert_eq!(stale.wait(), Err(qcn_serve::ServeError::DeadlineExceeded));
    let m = server.shutdown();
    assert_eq!(m.expired, 1);
    assert_eq!(m.completed, 1);
}

#[test]
fn shutdown_drains_queued_requests() {
    let (server, gate) = gated_server(ServeConfig {
        max_batch: 2,
        queue_capacity: 16,
        batch_window: Duration::ZERO,
        request_timeout: None,
        workers: 1,
        shed_watermark: None,
    });
    let first = server.submit("gated", sample(0)).unwrap();
    gate.wait_started(1);
    let queued: Vec<_> = (1..=5)
        .map(|i| server.submit("gated", sample(i)).unwrap())
        .collect();
    gate.open();
    let metrics = server.shutdown();
    // Every accepted request was answered before shutdown returned.
    assert!(first.try_wait().expect("answered").is_ok());
    for p in &queued {
        assert!(p.try_wait().expect("answered").is_ok());
    }
    assert_eq!(metrics.completed, 6);
    // And the server refuses new work afterwards.
    match server.submit("gated", sample(7)) {
        Err(SubmitError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn submit_validates_model_and_geometry() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "shallow",
            FakeQuantEngine::new(
                &model,
                shallow_config(RoundingScheme::RoundToNearest),
                [1, 16, 16],
            ),
        )
        .unwrap();
    let server = Server::start(registry, ServeConfig::default());
    match server.submit("missing", sample(0)) {
        Err(SubmitError::UnknownModel(id)) => assert_eq!(id, "missing"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    match server.submit("shallow", Tensor::zeros([1, 8, 8])) {
        Err(SubmitError::BadInput { expected, got }) => {
            assert_eq!(expected, vec![1, 16, 16]);
            assert_eq!(got, vec![1, 8, 8]);
        }
        other => panic!("expected BadInput, got {other:?}"),
    }
    server.shutdown();
}

/// An engine that panics on demand: the batch must fail typed, and the
/// worker must survive to serve later requests.
struct FaultyEngine {
    inner: FakeQuantEngine<ShallowCaps>,
}

impl ServeEngine for FaultyEngine {
    fn kind(&self) -> &str {
        "faulty"
    }
    fn input_dims(&self) -> &[usize] {
        self.inner.input_dims()
    }
    fn output_dims(&self) -> &[usize] {
        self.inner.output_dims()
    }
    fn infer_batch(&self, x: &Tensor) -> Tensor {
        // Poison value: an all-negative sample triggers the fault.
        if x.data()[0] < 0.0 {
            panic!("injected engine fault");
        }
        self.inner.infer_batch(x)
    }
}

#[test]
fn engine_panics_fail_the_batch_but_not_the_worker() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "faulty",
            FaultyEngine {
                inner: FakeQuantEngine::new(
                    &model,
                    shallow_config(RoundingScheme::RoundToNearest),
                    [1, 16, 16],
                ),
            },
        )
        .unwrap();
    let server = Server::start(
        registry,
        ServeConfig {
            max_batch: 1,
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut poison = sample(0);
    poison.data_mut()[0] = -1.0;
    let bad = server.submit("faulty", poison).unwrap();
    match bad.wait() {
        Err(qcn_serve::ServeError::EngineFailure(msg)) => {
            assert!(msg.contains("injected engine fault"), "{msg}");
        }
        other => panic!("expected EngineFailure, got {other:?}"),
    }
    // The worker survived and serves the next request.
    let good = server.submit("faulty", sample(1)).unwrap();
    assert!(good.wait().is_ok());
    let m = server.shutdown();
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed, 1);
}

#[test]
fn registry_rejects_duplicate_ids() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let config = shallow_config(RoundingScheme::RoundToNearest);
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "m",
            FakeQuantEngine::new(&model, config.clone(), [1, 16, 16]),
        )
        .unwrap();
    let err = registry
        .register("m", FakeQuantEngine::new(&model, config, [1, 16, 16]))
        .unwrap_err();
    assert_eq!(err, qcn_serve::RegistryError::DuplicateId("m".into()));
}

/// A `submit` racing `shutdown` must either be rejected synchronously
/// with `ShuttingDown` (or `QueueFull`) or be fully answered — a ticket
/// that resolves to `WorkerLost` would mean the server dropped an
/// accepted request on the floor.
#[test]
fn submit_racing_shutdown_is_rejected_or_answered_never_dropped() {
    const SUBMITTERS: usize = 4;
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "m",
            FakeQuantEngine::new(
                &model,
                shallow_config(RoundingScheme::RoundToNearest),
                [1, 16, 16],
            ),
        )
        .unwrap();
    let server = Arc::new(Server::start(
        registry,
        ServeConfig {
            max_batch: 4,
            queue_capacity: 32,
            batch_window: Duration::from_millis(1),
            request_timeout: None,
            workers: 2,
            shed_watermark: None,
        },
    ));
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                // Hammer the queue until the server closes the doors.
                loop {
                    match server.submit("m", sample(t as i64)) {
                        Ok(pending) => accepted.push(pending),
                        Err(SubmitError::QueueFull { .. }) => {
                            std::thread::yield_now();
                        }
                        Err(SubmitError::ShuttingDown) => break,
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
                accepted
            })
        })
        .collect();
    // Let the race build up real queue depth, then slam the doors.
    std::thread::sleep(Duration::from_millis(25));
    let metrics = server.shutdown();
    let mut answered = 0u64;
    for handle in submitters {
        for pending in handle.join().expect("submitter panicked") {
            // Every accepted ticket resolves with a real answer.
            assert!(
                pending.wait().is_ok(),
                "an accepted request was not answered"
            );
            answered += 1;
        }
    }
    assert_eq!(metrics.submitted, answered, "accepted == answered");
    assert_eq!(metrics.completed, answered);
    assert!(
        metrics.rejected_closed >= SUBMITTERS as u64,
        "each submitter must observe ShuttingDown"
    );
    assert_eq!(metrics.expired, 0);
    assert_eq!(metrics.failed, 0);
}

/// The served result equals the bare reference inference (fresh context,
/// single sample) — the ground truth the soak test scales up.
#[test]
fn served_response_equals_reference_inference() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let config = shallow_config(RoundingScheme::Stochastic);
    let qmodel = model.with_quantized_weights(&config);
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "m",
            FakeQuantEngine::new(&model, config.clone(), [1, 16, 16]),
        )
        .unwrap();
    let server = Server::start(registry, ServeConfig::default());
    let x = sample(3);
    let got = server.submit("m", x.clone()).unwrap().wait().unwrap();
    let single = Tensor::from_vec(x.data().to_vec(), [1, 1, 16, 16]).unwrap();
    let mut ctx = QuantCtx::from_config(&config);
    let want = qmodel.infer(&single, &config, &mut ctx);
    assert_eq!(got.data(), want.data());
    server.shutdown();
}
