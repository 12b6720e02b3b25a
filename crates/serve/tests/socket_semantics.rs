//! Socket front-end mechanisms: typed errors across the wire, malformed
//! frame handling, pipelined in-order responses, drain-on-shutdown, and
//! the wire counters. The cross-engine bit-identity contract lives in the
//! workspace suite `tests/serving_net_equivalence.rs`.

use qcn_capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
use qcn_fixed::RoundingScheme;
use qcn_serve::net::SocketServer;
use qcn_serve::{
    Client, ClientError, FakeQuantEngine, ModelRegistry, ServeConfig, ServeEngine, ServeError,
    Server, SubmitError,
};
use qcn_tensor::Tensor;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn serve_shallow(config: ServeConfig) -> SocketServer {
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
    let server = Arc::new(Server::start(registry, config));
    SocketServer::bind(server, "127.0.0.1:0").unwrap()
}

/// Submission-time rejections arrive as the same typed variants an
/// in-process caller gets from `Server::submit`.
#[test]
fn typed_submit_errors_cross_the_wire() {
    let net = serve_shallow(ServeConfig::default());
    let mut client = Client::connect(net.local_addr()).unwrap();
    match client.infer("missing", &sample(0)) {
        Err(ClientError::Rejected(SubmitError::UnknownModel(id))) => assert_eq!(id, "missing"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    match client.infer("shallow", &Tensor::zeros([2, 8, 8])) {
        Err(ClientError::Rejected(SubmitError::BadInput { expected, got })) => {
            assert_eq!(expected, vec![1, 16, 16]);
            assert_eq!(got, vec![2, 8, 8]);
        }
        other => panic!("expected BadInput, got {other:?}"),
    }
    // The connection survives typed rejections: a good request still runs.
    let out = client.infer("shallow", &sample(0)).unwrap();
    assert_eq!(out.dims(), &[10, 8]);
    drop(client);
    let m = net.shutdown();
    assert_eq!(m.completed, 1);
    assert_eq!(m.malformed_frames, 0);
}

/// An engine that panics on a poison sample — the wire must carry the
/// typed `EngineFailure` back.
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
        if x.data()[0] < 0.0 {
            panic!("injected engine fault");
        }
        self.inner.infer_batch(x)
    }
}

#[test]
fn engine_failures_cross_the_wire() {
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
    let server = Arc::new(Server::start(
        registry,
        ServeConfig {
            max_batch: 1,
            workers: 1,
            ..ServeConfig::default()
        },
    ));
    let net = SocketServer::bind(server, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(net.local_addr()).unwrap();
    let mut poison = sample(0);
    poison.data_mut()[0] = -1.0;
    match client.infer("faulty", &poison) {
        Err(ClientError::Failed(ServeError::EngineFailure(msg))) => {
            assert!(msg.contains("injected engine fault"), "{msg}");
        }
        other => panic!("expected EngineFailure, got {other:?}"),
    }
    // Worker and connection both survive the fault.
    assert!(client.infer("faulty", &sample(1)).is_ok());
    drop(client);
    net.shutdown();
}

/// A frame that does not parse closes the connection and bumps the
/// malformed-frame counter; other connections are unaffected.
#[test]
fn malformed_frames_close_the_connection_and_count() {
    let net = serve_shallow(ServeConfig::default());

    // A syntactically valid frame whose payload is garbage.
    let mut raw = TcpStream::connect(net.local_addr()).unwrap();
    let garbage = [0xFFu8; 16];
    raw.write_all(&(garbage.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(&garbage).unwrap();
    raw.flush().unwrap();
    // The server hangs up without answering.
    let mut buf = Vec::new();
    let n = raw.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "malformed frames must not be answered");
    drop(raw);

    // An announced length beyond the frame limit is equally malformed.
    let mut raw = TcpStream::connect(net.local_addr()).unwrap();
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    raw.flush().unwrap();
    let mut buf = Vec::new();
    let n = raw.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0);
    drop(raw);

    // A well-formed client on a fresh connection is unaffected.
    let mut client = Client::connect(net.local_addr()).unwrap();
    assert!(client.infer("shallow", &sample(0)).is_ok());
    drop(client);

    let m = net.shutdown();
    assert_eq!(m.malformed_frames, 2);
    assert_eq!(m.connections_accepted, 3);
    assert_eq!(m.connections_active, 0);
    assert_eq!(m.completed, 1);
}

/// Pipelined requests on one connection are answered in submission order,
/// each echoing its request id.
#[test]
fn pipelined_responses_arrive_in_submission_order() {
    let net = serve_shallow(ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(net.local_addr()).unwrap();
    let ids: Vec<u64> = (0..12)
        .map(|i| client.send("shallow", &sample(i)).unwrap())
        .collect();
    for want in ids {
        let response = client.recv().unwrap();
        assert_eq!(response.id, want);
        assert!(response.result.is_ok());
    }
    drop(client);
    assert_eq!(net.shutdown().completed, 12);
}

/// Shutdown must drain: every request the server accepted over the wire
/// is answered before the front-end goes down, even when the client has
/// not read a single response yet.
#[test]
fn shutdown_drains_in_flight_socket_requests() {
    const IN_FLIGHT: usize = 10;
    let net = serve_shallow(ServeConfig {
        max_batch: 2,
        queue_capacity: 2 * IN_FLIGHT,
        batch_window: Duration::from_millis(1),
        request_timeout: None,
        workers: 1,
        shed_watermark: None,
    });
    let mut client = Client::connect(net.local_addr()).unwrap();
    let ids: Vec<u64> = (0..IN_FLIGHT as i64)
        .map(|i| client.send("shallow", &sample(i)).unwrap())
        .collect();
    // Wait until the server has accepted every frame into its queue, so
    // "in flight" is unambiguous when the shutdown starts.
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.server().metrics().submitted < IN_FLIGHT as u64 {
        assert!(Instant::now() < deadline, "server never saw the requests");
        std::thread::sleep(Duration::from_millis(1));
    }
    let shutdown = std::thread::spawn(move || net.shutdown());
    // All in-flight requests are answered during the drain.
    for want in ids {
        let response = client.recv().unwrap();
        assert_eq!(response.id, want);
        assert!(response.result.is_ok(), "{:?}", response.result);
    }
    let m = shutdown.join().unwrap();
    assert_eq!(m.completed, IN_FLIGHT as u64);
    assert_eq!(m.failed, 0);
    assert_eq!(m.connections_active, 0);
}
