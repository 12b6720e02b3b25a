//! Chaos acceptance soak: a seeded fault storm across every injection
//! point in the serving stack, with the contract that **every non-shed
//! request resolves** — to a response bit-identical to the cold oracle,
//! or to a typed error — never a hang, never silent corruption.
//!
//! The phases share one process (the chaos plan is process-global), so
//! they run inside a single `#[test]`:
//!
//! 1. Reproducibility: the same seed previews the identical fault
//!    schedule; a different seed diverges.
//! 2. Corrupt model loading: a bit-flipped blob is caught by the CRC-32
//!    check as a typed `ChecksumMismatch`, and loading recovers the
//!    moment chaos is disarmed.
//! 3. Worker panic: an injected panic loses only its batch (typed
//!    `WorkerLost`), the worker respawns, and the server keeps serving.
//! 4. The storm: three replicas behind a router, wire resets, torn
//!    frames, dispatch delays, worker panics, upstream channel deaths
//!    and probe flaps all firing at once under client load.
//!
//! Seed override: `QCN_CHAOS_SEED=<n>` (CI sweeps a fixed matrix).

use qcn_repro::capsnet::{CapsNet, ModelQuant, QuantCtx, ShallowCaps, ShallowCapsConfig};
use qcn_repro::chaos::{self, FaultPlan, FaultSpec};
use qcn_repro::fixed::RoundingScheme;
use qcn_repro::framework::export::pack_model;
use qcn_repro::intinfer::{IntModel, LoadError, UnitMode};
use qcn_repro::router::{Router, RouterConfig};
use qcn_repro::serve::{
    Client, ClientError, FakeQuantEngine, IntEngine, ModelRegistry, ServeConfig, Server,
    SocketServer,
};
use qcn_repro::tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const IN_FRAC: u8 = 5;
const SAMPLES: usize = 3;
const THREADS: usize = 3;
const REQUESTS_PER_THREAD: usize = 80;
const WATCHDOG: Duration = Duration::from_secs(120);

fn seed_from_env() -> u64 {
    std::env::var("QCN_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE)
}

fn shallow_config() -> ModelQuant {
    let mut config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
    for lq in &mut config.layers {
        lq.dr_frac = Some(4);
    }
    config.seed = 0xBEEF;
    config
}

/// Deterministic on-grid sample `[1, 16, 16]` at Q1.5.
fn sample(seed: i64) -> Tensor {
    Tensor::from_fn([1, 16, 16], |idx| {
        let i = (idx[1] * 16 + idx[2]) as i64;
        ((i * 37 + seed * 11).rem_euclid(32)) as f32 / 32.0
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A replica serving the fake-quant and integer engines.
fn replica(model: &ShallowCaps) -> SocketServer {
    let config = shallow_config();
    let packed = pack_model(model, &config);
    let int_model = IntModel::load(&model.descriptor(), &packed).unwrap();
    let mut registry = ModelRegistry::new();
    registry
        .register("fq", FakeQuantEngine::new(model, config, [1, 16, 16]))
        .unwrap();
    registry
        .register(
            "int",
            IntEngine::new(int_model, IN_FRAC, UnitMode::FloatExact, [1, 16, 16]),
        )
        .unwrap();
    let server = Arc::new(Server::start(
        registry,
        ServeConfig {
            max_batch: 4,
            queue_capacity: 64,
            batch_window: Duration::from_millis(1),
            request_timeout: None,
            workers: 2,
            shed_watermark: Some(32),
        },
    ));
    SocketServer::bind(server, "127.0.0.1:0").unwrap()
}

/// The storm schedule: every injection point in the stack armed at once.
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with("serve.net.write", FaultSpec::reset(0.02))
        .with("serve.net.write", FaultSpec::truncate(0.02, 9))
        .with("serve.net.read", FaultSpec::reset(0.01))
        .with(
            "serve.dispatch",
            FaultSpec::delay(0.05, Duration::from_micros(500)),
        )
        .with("serve.worker", FaultSpec::panic_fault(0.02))
        .with("router.net.write", FaultSpec::reset(0.01))
        .with("router.net.write", FaultSpec::truncate(0.01, 9))
        .with("router.net.read", FaultSpec::reset(0.01))
        .with("router.upstream.write", FaultSpec::reset(0.02))
        .with("router.upstream.read", FaultSpec::reset(0.02))
        .with("router.probe", FaultSpec::reset(0.10))
        .with("client.send", FaultSpec::reset(0.01))
        .with("client.recv", FaultSpec::reset(0.01))
}

fn reconnect(addr: std::net::SocketAddr, deadline: Instant) -> Client {
    loop {
        assert!(
            Instant::now() < deadline,
            "watchdog: could not reconnect to the router"
        );
        if let Ok(mut c) = Client::connect_timeout(addr, Duration::from_millis(500)) {
            c.set_io_timeout(Some(Duration::from_secs(8))).unwrap();
            return c;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn seeded_fault_storm_never_hangs_or_corrupts() {
    let seed = seed_from_env();
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let config = shallow_config();

    // ---- Phase 1: the schedule is a pure function of the seed. --------
    let p1 = storm_plan(seed).preview("serve.net.write", 512);
    assert_eq!(
        p1,
        storm_plan(seed).preview("serve.net.write", 512),
        "same seed must replay the identical fault schedule"
    );
    assert_ne!(
        p1,
        storm_plan(seed ^ 1).preview("serve.net.write", 512),
        "different seeds must diverge"
    );

    // ---- Phase 2: corrupted model blobs are a typed load error. -------
    let packed = pack_model(&model, &config);
    chaos::install(FaultPlan::new(seed).with("intinfer.load", FaultSpec::flip_bit(1.0)));
    match IntModel::load(&model.descriptor(), &packed) {
        Err(LoadError::ChecksumMismatch { .. }) => {}
        other => panic!("bit-flipped blob must be a ChecksumMismatch, got {other:?}"),
    }
    chaos::clear();
    IntModel::load(&model.descriptor(), &packed)
        .expect("with chaos disarmed the same blob loads clean");

    // ---- Phase 3: a worker panic loses only its batch. ----------------
    {
        let mut registry = ModelRegistry::new();
        registry
            .register(
                "fq",
                FakeQuantEngine::new(&model, shallow_config(), [1, 16, 16]),
            )
            .unwrap();
        let server = Server::start(
            registry,
            ServeConfig {
                max_batch: 4,
                queue_capacity: 16,
                batch_window: Duration::from_millis(1),
                request_timeout: None,
                workers: 1,
                shed_watermark: None,
            },
        );
        chaos::install(FaultPlan::new(seed).with("serve.worker", FaultSpec::panic_fault(1.0)));
        match server.submit("fq", sample(0)).unwrap().wait() {
            Err(qcn_repro::serve::ServeError::WorkerLost) => {}
            other => panic!("a panicked worker's batch must be WorkerLost, got {other:?}"),
        }
        chaos::clear();
        server
            .submit("fq", sample(0))
            .unwrap()
            .wait()
            .expect("the respawned worker must serve again");
        let m = server.shutdown();
        assert!(
            m.worker_respawns >= 1,
            "the panic must be visible as a respawn: {m:?}"
        );
    }

    // ---- Phase 4: the storm. ------------------------------------------
    let samples: Vec<Tensor> = (0..SAMPLES).map(|i| sample(i as i64)).collect();
    let mut oracle: BTreeMap<(&'static str, usize), Vec<u32>> = BTreeMap::new();
    {
        let packed = pack_model(&model, &config);
        let int_model = IntModel::load(&model.descriptor(), &packed).unwrap();
        let qmodel = model.with_quantized_weights(&config);
        for (i, x) in samples.iter().enumerate() {
            let single = Tensor::from_vec(x.data().to_vec(), [1, 1, 16, 16]).unwrap();
            let mut ctx = QuantCtx::from_config(&config);
            oracle.insert(("fq", i), bits(&qmodel.infer(&single, &config, &mut ctx)));
            oracle.insert(
                ("int", i),
                bits(&int_model.infer(&single, IN_FRAC, UnitMode::FloatExact)),
            );
        }
    }
    let oracle = Arc::new(oracle);

    let replicas: Vec<SocketServer> = (0..3).map(|_| replica(&model)).collect();
    let mut cfg = RouterConfig::new(replicas.iter().map(|r| r.local_addr()));
    cfg.connect_timeout = Duration::from_millis(500);
    cfg.retry_backoff = Duration::from_millis(2);
    cfg.max_backoff = Duration::from_millis(20);
    cfg.health_interval = Duration::from_millis(100);
    cfg.eject_after = 2;
    cfg.eject_cooldown = Duration::from_millis(200);
    cfg.io_timeout = Duration::from_secs(1);
    let router = Router::bind(cfg, "127.0.0.1:0").unwrap();
    let router_addr = router.local_addr();

    chaos::install(storm_plan(seed));
    let deadline = Instant::now() + WATCHDOG;
    let loaders: Vec<thread::JoinHandle<(u64, u64)>> = (0..THREADS)
        .map(|t| {
            let oracle = Arc::clone(&oracle);
            let samples = samples.clone();
            thread::spawn(move || {
                let mut client = reconnect(router_addr, deadline);
                let (mut oks, mut typed) = (0u64, 0u64);
                for k in 0..REQUESTS_PER_THREAD {
                    assert!(
                        Instant::now() < deadline,
                        "watchdog: storm thread {t} stalled at request {k}"
                    );
                    let id = if (t + k) % 2 == 0 { "fq" } else { "int" };
                    let i = (t + k) % SAMPLES;
                    match client.infer(id, &samples[i]) {
                        Ok(out) => {
                            assert_eq!(
                                bits(&out),
                                oracle[&(id, i)],
                                "thread {t} request {k} ({id}, sample {i}) is not bit-identical"
                            );
                            oks += 1;
                        }
                        Err(ClientError::Protocol(msg)) => {
                            panic!(
                                "thread {t} request {k}: wire corruption reached the client: {msg}"
                            )
                        }
                        Err(ClientError::Io(_) | ClientError::TimedOut) => {
                            // The connection died (injected reset, torn
                            // frame, or our own injected client fault):
                            // a typed, non-corrupt resolution. Reconnect.
                            typed += 1;
                            client = reconnect(router_addr, deadline);
                        }
                        Err(ClientError::Rejected(_) | ClientError::Failed(_)) => {
                            // Typed backpressure or failure — the
                            // connection itself is still good.
                            typed += 1;
                        }
                    }
                }
                (oks, typed)
            })
        })
        .collect();

    let mut oks = 0u64;
    let mut typed = 0u64;
    for handle in loaders {
        let (o, t) = handle
            .join()
            .expect("a storm thread saw corruption or hung");
        oks += o;
        typed += t;
    }
    chaos::clear();
    assert_eq!(
        oks + typed,
        (THREADS * REQUESTS_PER_THREAD) as u64,
        "every request must resolve"
    );
    assert!(
        oks >= (THREADS * REQUESTS_PER_THREAD) as u64 / 2,
        "the storm should mostly succeed ({oks} ok, {typed} typed errors)"
    );

    // With chaos disarmed the stack serves clean, bit-identical traffic
    // again — the storm left no lasting damage.
    let mut client = reconnect(router_addr, Instant::now() + Duration::from_secs(10));
    for (i, x) in samples.iter().enumerate() {
        let out = client.infer("int", x).expect("post-storm request failed");
        assert_eq!(bits(&out), oracle[&("int", i)], "post-storm divergence");
    }
    drop(client);

    router.shutdown();
    for r in replicas {
        r.shutdown();
    }
}
