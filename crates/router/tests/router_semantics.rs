//! Mechanism-level router tests: balancing spread, admission control,
//! typed error passthrough, retry/ejection bookkeeping, stats identity,
//! malformed client frames and drain-on-shutdown. The end-to-end kill-and-restart failover soak
//! (both engines, all rounding schemes) lives at the workspace root in
//! `tests/router_failover.rs`.

use qcn_capsnet::{CapsNet, ModelQuant, QuantCtx, ShallowCaps, ShallowCapsConfig};
use qcn_fixed::RoundingScheme;
use qcn_router::{Router, RouterConfig};
use qcn_serve::wire::WireError;
use qcn_serve::{
    Client, ClientError, FakeQuantEngine, ModelRegistry, ServeConfig, ServeError, Server,
    SocketServer, SubmitError,
};
use qcn_tensor::Tensor;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

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

fn oracle(model: &ShallowCaps, config: &ModelQuant, x: &Tensor) -> Vec<u32> {
    let single = Tensor::from_vec(x.data().to_vec(), [1, 1, 16, 16]).unwrap();
    let qmodel = model.with_quantized_weights(config);
    let mut ctx = QuantCtx::from_config(config);
    bits(&qmodel.infer(&single, config, &mut ctx))
}

/// One in-process replica serving the "m" model.
fn replica(model: &ShallowCaps, batch_window: Duration) -> SocketServer {
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "m",
            FakeQuantEngine::new(model, shallow_config(), [1, 16, 16]),
        )
        .unwrap();
    let server = Arc::new(Server::start(
        registry,
        ServeConfig {
            max_batch: 8,
            queue_capacity: 128,
            batch_window,
            request_timeout: None,
            workers: 1,
            shed_watermark: None,
        },
    ));
    SocketServer::bind(server, "127.0.0.1:0").unwrap()
}

/// Fast knobs so failure paths resolve in test time.
fn fast_config(backends: Vec<SocketAddr>) -> RouterConfig {
    let mut cfg = RouterConfig::new(backends);
    cfg.connect_timeout = Duration::from_millis(250);
    cfg.retry_backoff = Duration::from_millis(2);
    cfg.max_backoff = Duration::from_millis(10);
    cfg.health_interval = Duration::from_millis(100);
    cfg.probe_timeout = Duration::from_millis(500);
    cfg.eject_cooldown = Duration::from_millis(300);
    cfg.io_timeout = Duration::from_secs(2);
    cfg
}

/// A bound-then-dropped listener: its port refuses connections.
fn dead_port() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap()
}

#[test]
fn routed_responses_are_bit_exact_and_spread_over_replicas() {
    const REQUESTS: usize = 30;
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let config = shallow_config();
    let replicas: Vec<SocketServer> = (0..3)
        .map(|_| replica(&model, Duration::from_millis(1)))
        .collect();
    let router = Router::bind(
        fast_config(replicas.iter().map(|r| r.local_addr()).collect()),
        "127.0.0.1:0",
    )
    .unwrap();

    let samples: Vec<Tensor> = (0..6).map(|i| sample(i as i64)).collect();
    let want: Vec<Vec<u32>> = samples.iter().map(|x| oracle(&model, &config, x)).collect();

    // One pipelined connection: fire everything, then read everything.
    let mut client = Client::connect(router.local_addr()).unwrap();
    let mut sent = Vec::new();
    for k in 0..REQUESTS {
        let i = k % samples.len();
        sent.push((client.send("m", &samples[i]).unwrap(), i));
    }
    for (req_id, i) in &sent {
        let response = client.recv().unwrap();
        assert_eq!(response.id, *req_id, "submission order must be preserved");
        let out = response.result.expect("routed inference failed");
        assert_eq!(
            bits(&out),
            want[*i],
            "sample {i} diverged through the router"
        );
    }
    drop(client);

    let snap = router.shutdown();
    assert_eq!(snap.completed, REQUESTS as u64);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.rejected, 0);
    assert_eq!(snap.malformed_frames, 0);
    assert_eq!(snap.connections_accepted, 1);
    assert_eq!(snap.inflight, 0);
    let per_backend: Vec<u64> = snap.backends.iter().map(|b| b.ok).collect();
    assert_eq!(per_backend.iter().sum::<u64>(), REQUESTS as u64);
    assert!(
        per_backend.iter().all(|&ok| ok > 0),
        "least-outstanding balancing left a replica cold: {per_backend:?}"
    );
}

#[test]
fn admission_budget_rejects_with_queue_full() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    // A deliberately slow replica: the batch window holds the first
    // request long enough for the pipelined follow-ups to hit the budget.
    let slow = replica(&model, Duration::from_millis(400));
    let mut cfg = fast_config(vec![slow.local_addr()]);
    cfg.max_inflight = 1;
    let router = Router::bind(cfg, "127.0.0.1:0").unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    let x = sample(0);
    let first = client.send("m", &x).unwrap();
    let second = client.send("m", &x).unwrap();
    let third = client.send("m", &x).unwrap();

    let r1 = client.recv().unwrap();
    assert_eq!(r1.id, first);
    assert!(r1.result.is_ok(), "the admitted request must complete");
    for (rid, resp) in [
        (second, client.recv().unwrap()),
        (third, client.recv().unwrap()),
    ] {
        assert_eq!(resp.id, rid);
        match resp.result {
            Err(WireError::Submit(SubmitError::QueueFull { capacity })) => {
                assert_eq!(capacity, 1, "budget must be reported as the capacity");
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }
    drop(client);
    let snap = router.shutdown();
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.rejected, 2);
}

#[test]
fn backend_rejections_pass_through_typed() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let replica = replica(&model, Duration::from_millis(1));
    let router = Router::bind(fast_config(vec![replica.local_addr()]), "127.0.0.1:0").unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    match client.infer("nope", &sample(0)) {
        Err(ClientError::Rejected(SubmitError::UnknownModel(m))) => assert_eq!(m, "nope"),
        other => panic!("expected UnknownModel through the router, got {other:?}"),
    }
    // Bad geometry is caught by the replica and relayed typed.
    match client.infer("m", &Tensor::zeros([2, 2])) {
        Err(ClientError::Rejected(SubmitError::BadInput { expected, .. })) => {
            assert_eq!(expected, vec![1, 16, 16]);
        }
        other => panic!("expected BadInput through the router, got {other:?}"),
    }
}

#[test]
fn stats_frame_returns_the_routers_own_metrics() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let replica = replica(&model, Duration::from_millis(1));
    let router = Router::bind(fast_config(vec![replica.local_addr()]), "127.0.0.1:0").unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    client.infer("m", &sample(0)).unwrap();
    let text = client.stats().unwrap();
    assert!(
        text.contains("qcn_router_completed_total 1"),
        "stats against the router must expose router metrics:\n{text}"
    );
    assert!(text.contains("qcn_router_requests_total{backend=\""));
    assert!(text.contains("qcn_router_uptime_seconds"));
    // The replica's own server metrics are not the router's story.
    assert!(!text.contains("qcn_serve_requests_submitted_total"));
}

#[test]
fn exhausted_retries_surface_a_typed_router_error() {
    let mut cfg = fast_config(vec![dead_port()]);
    cfg.max_retries = 1;
    let router = Router::bind(cfg, "127.0.0.1:0").unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    match client.infer("m", &sample(0)) {
        Err(ClientError::Failed(ServeError::EngineFailure(msg))) => {
            assert!(msg.contains("router:"), "error must name the router: {msg}");
        }
        other => panic!("expected a router EngineFailure, got {other:?}"),
    }
    drop(client);
    let snap = router.shutdown();
    assert_eq!(snap.failed, 1);
    assert_eq!(snap.completed, 0);
    assert!(snap.backends[0].retries >= 1);
    assert_eq!(snap.inflight, 0);
}

#[test]
fn dead_replica_is_ejected_and_traffic_fails_over() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let config = shallow_config();
    let alive = replica(&model, Duration::from_millis(1));
    let mut cfg = fast_config(vec![dead_port(), alive.local_addr()]);
    cfg.eject_after = 1;
    let router = Router::bind(cfg, "127.0.0.1:0").unwrap();

    let x = sample(3);
    let want = oracle(&model, &config, &x);
    let mut client = Client::connect(router.local_addr()).unwrap();
    let mut ejected = false;
    for round in 0..50 {
        let out = client
            .infer("m", &x)
            .unwrap_or_else(|e| panic!("failover lost request in round {round}: {e}"));
        assert_eq!(bits(&out), want, "round {round} diverged");
        if router.snapshot().backends[0].ejections >= 1 {
            ejected = true;
            break;
        }
    }
    assert!(ejected, "the dead replica was never picked and ejected");
    drop(client);
    let snap = router.shutdown();
    assert_eq!(snap.failed, 0);
    assert!(
        !snap.backends[0].available,
        "dead replica must stay ejected"
    );
    assert!(snap.backends[1].ok >= 1);
    assert_eq!(snap.backends[0].ok, 0);
}

#[test]
fn all_backends_ejected_still_answers_typed() {
    // Every replica is a dead port: the whole fleet ejects, yet every
    // request must still resolve to a typed router error — never a hang,
    // never a dropped connection.
    let mut cfg = fast_config(vec![dead_port(), dead_port(), dead_port()]);
    cfg.eject_after = 1;
    cfg.max_retries = 2;
    cfg.eject_cooldown = Duration::from_secs(30); // nothing readmits mid-test
    let router = Router::bind(cfg, "127.0.0.1:0").unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    for round in 0..4 {
        match client.infer("m", &sample(round)) {
            Err(ClientError::Failed(ServeError::EngineFailure(msg))) => {
                assert!(msg.contains("router:"), "round {round}: {msg}");
            }
            other => panic!("round {round}: expected a typed router error, got {other:?}"),
        }
    }
    let snap = router.snapshot();
    assert!(
        snap.backends.iter().all(|b| !b.available),
        "every backend must be ejected: {snap:?}"
    );
    // A request against a fully ejected fleet still gets the last-resort
    // "try anyway" path and a typed answer.
    assert!(matches!(
        client.infer("m", &sample(9)),
        Err(ClientError::Failed(ServeError::EngineFailure(_)))
    ));
    drop(client);
    let snap = router.shutdown();
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.failed, 5);
    assert_eq!(snap.inflight, 0);
}

#[test]
fn shutdown_drains_admitted_requests() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let config = shallow_config();
    let slow = replica(&model, Duration::from_millis(150));
    let router =
        Arc::new(Router::bind(fast_config(vec![slow.local_addr()]), "127.0.0.1:0").unwrap());

    let x = sample(1);
    let want = oracle(&model, &config, &x);
    let mut client = Client::connect(router.local_addr()).unwrap();
    let ids: Vec<u64> = (0..3).map(|_| client.send("m", &x).unwrap()).collect();

    // Shut down while the slow replica still holds every request.
    let shut = {
        let router = Arc::clone(&router);
        thread::spawn(move || router.shutdown())
    };
    for id in ids {
        let response = client.recv().expect("drained response must arrive");
        assert_eq!(response.id, id);
        assert_eq!(
            bits(&response.result.expect("drained request failed")),
            want
        );
    }
    let snap = shut.join().unwrap();
    assert_eq!(snap.completed, 3);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.inflight, 0);
}

#[test]
fn health_probes_run_and_count() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let replica = replica(&model, Duration::from_millis(1));
    let router = Router::bind(fast_config(vec![replica.local_addr()]), "127.0.0.1:0").unwrap();
    // A few health intervals pass; the live replica accumulates
    // successful probes and stays available.
    thread::sleep(Duration::from_millis(450));
    let snap = router.shutdown();
    assert!(
        snap.backends[0].health_ok >= 2,
        "expected periodic probes, saw {}",
        snap.backends[0].health_ok
    );
    assert_eq!(snap.backends[0].health_fail, 0);
    assert!(snap.backends[0].available);
}

/// Sends `bytes` on a fresh raw connection and returns what the router
/// answers before hanging up.
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(bytes).unwrap();
    raw.flush().unwrap();
    let mut answer = Vec::new();
    let _ = raw.read_to_end(&mut answer);
    answer
}

/// A garbage payload or an oversized length prefix closes only that
/// client's connection, unanswered; nothing reaches the replicas.
#[test]
fn malformed_client_frames_close_the_connection_and_count() {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let config = shallow_config();
    let replica = replica(&model, Duration::from_millis(1));
    let router = Router::bind(fast_config(vec![replica.local_addr()]), "127.0.0.1:0").unwrap();

    let garbage = [0xFFu8; 16];
    let mut frame = (garbage.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&garbage);
    assert!(
        raw_exchange(router.local_addr(), &frame).is_empty(),
        "a garbage frame must not be answered"
    );
    assert!(
        raw_exchange(router.local_addr(), &u32::MAX.to_be_bytes()).is_empty(),
        "an oversized frame must not be answered"
    );

    // A fresh client is unaffected and still bit-exact.
    let x = sample(3);
    let mut client = Client::connect(router.local_addr()).unwrap();
    let out = client
        .infer("m", &x)
        .expect("fresh client after malformed peers");
    assert_eq!(bits(&out), oracle(&model, &config, &x));
    drop(client);

    let snap = router.shutdown();
    assert_eq!(snap.malformed_frames, 2);
    assert_eq!(snap.connections_accepted, 3);
    assert_eq!(snap.connections_active, 0);
    assert_eq!(snap.completed, 1);
    assert_eq!(replica.shutdown().malformed_frames, 0);
}
