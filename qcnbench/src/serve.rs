//! The serving workload: a client drives `Router` in front of two
//! in-process `IntEngine` replicas, first open loop at a fixed offered
//! rate, then closed loop with a fixed pipelined window.

use crate::calib::Track;
use crate::stats::{
    latency_percentiles, nearest_rank, poisson_schedule, split_schedule, supports, windows,
    Arrival, Outcome, SplitMix,
};
use crate::{median, Pass};
use qcapsnets::export::pack_model;
use qcn_capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
use qcn_fixed::RoundingScheme;
use qcn_intinfer::{IntModel, UnitMode};
use qcn_router::{Router, RouterConfig, RouterSnapshot};
use qcn_serve::wire::{decode_response, encode_request, read_frame, write_frame};
use qcn_serve::{
    Client, ClientError, IntEngine, MetricsSnapshot, ModelRegistry, ServeConfig, ServeEngine,
    ServeError, Server, SocketServer, WireError, WireRequest,
};
use qcn_telemetry::MetricValue;
use qcn_tensor::Tensor;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replicas behind the router.
pub const REPLICAS: usize = 2;
/// Largest batch each replica's scheduler fuses.
pub const MAX_BATCH: usize = 8;
/// Requests in flight during the closed-loop phase: one full batch per
/// replica. With 64 in flight the replicas' batches fell in and out of step
/// and the completion rate of identical runs spread by 35-50%.
pub const WINDOW: usize = 16;
/// Distinct seeded inputs the requests draw from.
const POOL: usize = 64;
/// Cold starts before the measured phases; the last one serves.
const SETUPS_BEFORE: usize = 3;
/// One more cold start after every this many measured segments, so the
/// set-up median spans the same host conditions as the other metrics.
const SETUP_EVERY: usize = 2;
/// Unmeasured open-loop traffic between set-up and the measured phases.
const WARMUP_S: f64 = 1.0;
/// Length of the open-loop segments, each followed by a calibration; the
/// latency percentiles are taken per segment.
const OPEN_SEGMENT_S: f64 = 1.0;
/// Length of the closed-loop segments `capacity_rps` takes the median of.
/// Each drains before the next starts.
const CLOSED_SEGMENT_S: f64 = 1.0;
/// Unmeasured closed-loop traffic before the measured segments: the first
/// second after a round of cold starts ran up to 50% slow.
const CLOSED_WARMUP_S: f64 = 0.5;
/// The generator fell behind when its p99 lateness exceeds this.
const LATE_LIMIT_MS: f64 = 10.0;
const MODEL: &str = "m";
const IN_FRAC: u8 = 5;
const INPUT_DIMS: [usize; 3] = [1, 16, 16];
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The fixed open-loop rate: far below the closed-loop capacity (about
/// 900-1400/s on a 2-core host), so the open loop measures latency, not
/// queueing.
pub const OFFERED_RPS: f64 = 120.0;
const SCHEME: RoundingScheme = RoundingScheme::RoundToNearest;
/// The `engine` label of the program's stage-time histograms.
const ENGINE_LABEL: &str = "integer";

/// `IntEngine` in `UnitMode::FloatExact` on the packed model.
fn build_engine(model: &ShallowCaps, config: &ModelQuant) -> IntEngine {
    let packed = pack_model(model, config);
    let int_model = IntModel::load(&model.descriptor(), &packed).expect("config fully quantized");
    IntEngine::new(int_model, IN_FRAC, UnitMode::FloatExact, INPUT_DIMS)
}

/// The served ShallowCaps-S: seeded weights, uniform Q1.3 weights / Q1.5
/// activations with Q1.4 routing data — the deployment grid of the
/// integration suites.
fn served_model() -> (ShallowCaps, ModelQuant) {
    let model = ShallowCaps::new(ShallowCapsConfig::small(1), 5);
    let mut config = ModelQuant::uniform(3, 5, SCHEME);
    for lq in &mut config.layers {
        lq.dr_frac = Some(4);
    }
    (model, config)
}

/// Seeded on-grid Q1.5 samples in `[0, 1]`.
fn input_pool(seed: u64) -> Vec<Tensor> {
    let mut rng = SplitMix::new(seed ^ 0x1A9E_5EED);
    let len: usize = INPUT_DIMS.iter().product();
    (0..POOL)
        .map(|_| {
            let data = (0..len).map(|_| rng.below(33) as f32 / 32.0).collect();
            Tensor::from_vec(data, INPUT_DIMS).expect("pool sample dims")
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn single(x: &Tensor) -> Tensor {
    Tensor::from_vec(x.data().to_vec(), [1, 1, 16, 16]).expect("batch of one")
}

struct Fleet {
    replicas: Vec<SocketServer>,
    router: Router,
}

impl Fleet {
    fn start(model: &ShallowCaps, config: &ModelQuant) -> Fleet {
        let replicas: Vec<SocketServer> = (0..REPLICAS)
            .map(|_| {
                let mut registry = ModelRegistry::new();
                registry
                    .register(MODEL, build_engine(model, config))
                    .expect("one model per replica");
                let server = Server::start(
                    registry,
                    ServeConfig {
                        max_batch: MAX_BATCH,
                        workers: 1,
                        // No hold: a batch is whatever has queued when the
                        // worker comes free. With the default 2-ms hold the
                        // open-loop latency was dominated by the hold and
                        // the closed loop's batches fell in and out of step.
                        batch_window: Duration::ZERO,
                        ..ServeConfig::default()
                    },
                );
                SocketServer::bind(Arc::new(server), "127.0.0.1:0").expect("bind replica")
            })
            .collect();
        let router = Router::bind(
            RouterConfig::new(replicas.iter().map(SocketServer::local_addr)),
            "127.0.0.1:0",
        )
        .expect("bind router");
        Fleet { replicas, router }
    }

    fn replica_metrics(&self) -> Vec<MetricsSnapshot> {
        self.replicas.iter().map(|r| r.server().metrics()).collect()
    }

    fn shutdown(self) -> RouterSnapshot {
        let snap = self.router.shutdown();
        for r in &self.replicas {
            r.shutdown();
        }
        snap
    }
}

/// A warm stack plus the oracle its responses are checked against.
struct Stack {
    fleet: Fleet,
    engine: IntEngine,
    oracle: Vec<Vec<u32>>,
    /// Whether the first routed response matched the oracle.
    first_correct: bool,
}

/// Cold start: build the model and a reference engine, compute the oracle
/// (one single-sample inference per pooled input), start replicas and
/// router, and wait for the first correct routed response.
fn set_up(pool: &[Tensor]) -> (Stack, f64) {
    let start = Instant::now();
    let (model, config) = served_model();
    let engine = build_engine(&model, &config);
    let oracle: Vec<Vec<u32>> = pool
        .iter()
        .map(|x| bits(&engine.infer_batch(&single(x))))
        .collect();
    let fleet = Fleet::start(&model, &config);
    let mut client = Client::connect(fleet.router.local_addr()).expect("connect to router");
    client
        .set_io_timeout(Some(IO_TIMEOUT))
        .expect("client timeout");
    let first = client.infer(MODEL, &pool[0]).expect("first routed request");
    let first_correct = bits(&first) == oracle[0];
    let secs = start.elapsed().as_secs_f64();
    (
        Stack {
            fleet,
            engine,
            oracle,
            first_correct,
        },
        secs,
    )
}

/// The cold starts of one pass: their times at reference host speed and as
/// measured, and how many first responses differed from the oracle.
struct ColdStarts<'a> {
    pool: &'a [Tensor],
    times: Vec<f64>,
    measured: Vec<f64>,
    mismatches: u64,
}

impl ColdStarts<'_> {
    fn start(&mut self, track: &mut Track) -> Stack {
        let (stack, secs) = set_up(self.pool);
        self.measured.push(secs);
        self.times.push(secs / track.mark());
        self.mismatches += u64::from(!stack.first_correct);
        stack
    }

    /// Called after measured segment `k`: every `SETUP_EVERY`-th segment,
    /// one cold start of a fleet that is shut down again at once. The
    /// serving fleet is idle between segments.
    fn after_segment(&mut self, k: usize, track: &mut Track) {
        if k % SETUP_EVERY == SETUP_EVERY - 1 {
            self.start(track).fleet.shutdown();
        }
    }
}

/// Classifies one response against the oracle.
fn judge(result: Result<Tensor, WireError>, want: &[u32], latency_ms: f64) -> (Outcome, bool) {
    match result {
        Ok(t) if bits(&t) == want => (Outcome::Ok(latency_ms), false),
        Ok(_) => (Outcome::Failed, true),
        Err(WireError::Submit(_)) | Err(WireError::Serve(ServeError::Overloaded)) => {
            (Outcome::Refused, false)
        }
        Err(WireError::Serve(_)) => (Outcome::Failed, false),
    }
}

/// Request counts of one phase.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    sent: u64,
    ok: u64,
    failed: u64,
    refused: u64,
    mismatched: u64,
}

impl Counts {
    fn of(outcomes: &[Outcome], mismatched: u64) -> Counts {
        let mut c = Counts {
            sent: outcomes.len() as u64,
            mismatched,
            ..Counts::default()
        };
        for o in outcomes {
            match o {
                Outcome::Ok(_) => c.ok += 1,
                Outcome::Failed => c.failed += 1,
                Outcome::Refused => c.refused += 1,
            }
        }
        c
    }

    fn add(&mut self, other: &Counts) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.refused += other.refused;
        self.mismatched += other.mismatched;
    }

    /// Failed (oracle mismatches included) or refused.
    fn unsuccessful(&self) -> u64 {
        self.failed + self.refused
    }

    fn json(&self) -> String {
        format!(
            "{{\"sent\": {}, \"ok\": {}, \"failed\": {}, \"refused\": {}, \"mismatched\": {}}}",
            self.sent, self.ok, self.failed, self.refused, self.mismatched
        )
    }
}

/// One request's trace span: due, sent and answered, in µs from phase start.
struct Span {
    due_us: u64,
    sent_us: Option<u64>,
    done_us: Option<u64>,
    outcome: Outcome,
}

struct OpenLoop {
    outcomes: Vec<Outcome>,
    counts: Counts,
    /// Generator lateness (sent − due) per sent request, ms.
    late_ms: Vec<f64>,
    /// Requests the generator still held when the phase ended.
    backlog_end: usize,
    spans: Vec<Span>,
}

/// Open loop: one sender thread writes each request when it falls due,
/// one receiver thread reads the responses, both on one connection.
/// Latency runs from the due time, so a stall charges every request it
/// delays.
fn open_loop(
    addr: SocketAddr,
    pool: &[Tensor],
    oracle: &[Vec<u32>],
    schedule: &[Arrival],
    phase_s: f64,
) -> OpenLoop {
    let stream = TcpStream::connect(addr).expect("connect open-loop client");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .expect("read timeout");
    // Encode ahead so the sender only writes.
    let payloads: Vec<Vec<u8>> = schedule
        .iter()
        .enumerate()
        .map(|(i, a)| {
            encode_request(&WireRequest {
                id: i as u64,
                model: MODEL.to_string(),
                input: pool[a.input].clone(),
            })
        })
        .collect();
    let n = schedule.len();
    let start = Instant::now() + Duration::from_millis(20);
    let us = |t: Instant| t.saturating_duration_since(start).as_micros() as u64;
    let (sent, answered) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut w = BufWriter::new(&stream);
            let mut sent = Vec::with_capacity(n);
            for (a, payload) in schedule.iter().zip(&payloads) {
                let due = start + Duration::from_secs_f64(a.due_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let at = Instant::now();
                if write_frame(&mut w, payload)
                    .and_then(|_| w.flush())
                    .is_err()
                {
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                sent.push(at);
            }
            sent
        });
        let receiver = s.spawn(|| {
            let mut r = BufReader::new(&stream);
            let mut answered: Vec<Option<(Instant, Result<Tensor, WireError>)>> =
                (0..n).map(|_| None).collect();
            for _ in 0..n {
                let Ok(Some(payload)) = read_frame(&mut r) else {
                    break;
                };
                let at = Instant::now();
                let Ok(resp) = decode_response(&payload) else {
                    break;
                };
                if let Some(slot) = answered.get_mut(resp.id as usize) {
                    *slot = Some((at, resp.result));
                }
            }
            answered
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let mut outcomes = Vec::with_capacity(n);
    let mut spans = Vec::with_capacity(n);
    let mut mismatched = 0;
    for (i, (a, ans)) in schedule.iter().zip(answered).enumerate() {
        let due = start + Duration::from_secs_f64(a.due_s);
        let (outcome, done) = match ans {
            Some((at, result)) => {
                let ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
                let (o, wrong) = judge(result, &oracle[a.input], ms);
                mismatched += u64::from(wrong);
                (o, Some(us(at)))
            }
            None => (Outcome::Failed, None),
        };
        outcomes.push(outcome);
        spans.push(Span {
            due_us: us(due),
            sent_us: sent.get(i).map(|&t| us(t)),
            done_us: done,
            outcome,
        });
    }
    let late_ms = schedule
        .iter()
        .zip(&sent)
        .map(|(a, &at)| {
            let due = start + Duration::from_secs_f64(a.due_s);
            at.saturating_duration_since(due).as_secs_f64() * 1e3
        })
        .collect();
    let end = start + Duration::from_secs_f64(phase_s);
    let backlog_end = sent.iter().filter(|&&t| t > end).count() + (n - sent.len());
    OpenLoop {
        counts: Counts::of(&outcomes, mismatched),
        outcomes,
        late_ms,
        backlog_end,
        spans,
    }
}

struct ClosedLoop {
    counts: Counts,
    /// Correct answers per second over the whole phase and its drain.
    rps: f64,
}

/// Closed loop: keep `WINDOW` requests in flight on one pipelined
/// connection, sending the next as soon as one is answered, until
/// `phase_s` has passed; then drain.
fn closed_loop(
    addr: SocketAddr,
    pool: &[Tensor],
    oracle: &[Vec<u32>],
    seed: u64,
    phase_s: f64,
) -> ClosedLoop {
    let mut client = Client::connect(addr).expect("connect closed-loop client");
    client
        .set_io_timeout(Some(IO_TIMEOUT))
        .expect("client timeout");
    let mut rng = SplitMix::new(seed ^ 0xC105_ED00);
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let mut outcomes = Vec::new();
    let mut mismatched = 0;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(phase_s);
    let mut send = |client: &mut Client, inflight: &mut VecDeque<(u64, usize)>| {
        let idx = rng.below(pool.len());
        let id = client.send(MODEL, &pool[idx]).expect("closed-loop send");
        inflight.push_back((id, idx));
    };
    for _ in 0..WINDOW {
        send(&mut client, &mut inflight);
    }
    while let Some((id, idx)) = inflight.pop_front() {
        match client.recv() {
            Ok(resp) if resp.id == id => {
                let (o, wrong) = judge(resp.result, &oracle[idx], 0.0);
                mismatched += u64::from(wrong);
                outcomes.push(o);
            }
            Ok(_) | Err(ClientError::Protocol(_)) => {
                mismatched += 1;
                outcomes.push(Outcome::Failed);
            }
            Err(_) => {
                // The connection is gone: everything in flight is lost.
                outcomes.extend(std::iter::repeat_n(Outcome::Failed, inflight.len() + 1));
                break;
            }
        }
        if Instant::now() < deadline {
            send(&mut client, &mut inflight);
        }
    }
    let counts = Counts::of(&outcomes, mismatched);
    ClosedLoop {
        rps: counts.ok as f64 / start.elapsed().as_secs_f64(),
        counts,
    }
}

/// `(count, sum µs)` of the program's stage-time histogram per stage.
fn stage_totals(engine: &str) -> Vec<(String, u64, f64)> {
    let mut out = Vec::new();
    for m in qcn_telemetry::global().snapshot() {
        if m.name != "qcn_stage_duration_us" {
            continue;
        }
        let label = |k: &str| {
            m.labels
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        if label("engine") != Some(engine) || label("model") != Some("ShallowCaps") {
            continue;
        }
        if let (Some(stage), MetricValue::Histogram { count, sum, .. }) = (label("stage"), &m.value)
        {
            out.push((stage.to_string(), *count, *sum));
        }
    }
    out
}

/// Adds the calls and µs each stage gained between two `stage_totals`.
fn add_stage_delta(
    acc: &mut Vec<(String, u64, f64)>,
    before: &[(String, u64, f64)],
    after: &[(String, u64, f64)],
) {
    for (stage, count, sum) in after {
        let (c0, s0) = before
            .iter()
            .find(|(s, _, _)| s == stage)
            .map_or((0, 0.0), |(_, c, s)| (*c, *s));
        match acc.iter_mut().find(|(s, _, _)| s == stage) {
            Some(slot) => {
                slot.1 += count - c0;
                slot.2 += sum - s0;
            }
            None => acc.push((stage.clone(), count - c0, sum - s0)),
        }
    }
}

/// Median wall time of `f` in µs, repeated for about `budget`.
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Mean executed batch between two snapshots of the same replicas.
fn mean_batch(before: &[MetricsSnapshot], after: &[MetricsSnapshot]) -> f64 {
    let (mut batches, mut requests) = (0u64, 0u64);
    for (b, a) in before.iter().zip(after) {
        for (size, (&nb, &na)) in b.batch_histogram.iter().zip(&a.batch_histogram).enumerate() {
            batches += na - nb;
            requests += (na - nb) * (size as u64 + 1);
        }
    }
    requests as f64 / batches.max(1) as f64
}

/// The open-loop phase, run as segments with a calibration after each.
struct OpenPhase {
    /// p50 and p90 latency of each segment at reference host speed.
    p50: Vec<f64>,
    p90: Vec<f64>,
    /// The same as measured.
    measured: [Vec<f64>; 2],
    samples: usize,
    counts: Counts,
    late_ms: Vec<f64>,
    backlog_end: usize,
    /// Each request's span with the index of its segment.
    spans: Vec<(usize, Span)>,
}

impl OpenPhase {
    /// Medians over the segments of their p50 and p90.
    fn latency(&self) -> [f64; 2] {
        [median(&self.p50), median(&self.p90)]
    }

    fn measured_latency(&self) -> [f64; 2] {
        [median(&self.measured[0]), median(&self.measured[1])]
    }
}

fn open_phase(
    addr: SocketAddr,
    pool: &[Tensor],
    oracle: &[Vec<u32>],
    schedule: &[Arrival],
    phase_s: f64,
    track: &mut Track,
    mut cold: Option<&mut ColdStarts>,
) -> OpenPhase {
    let (len, segments) = split_schedule(schedule, phase_s, OPEN_SEGMENT_S);
    let mut phase = OpenPhase {
        p50: Vec::with_capacity(segments.len()),
        p90: Vec::with_capacity(segments.len()),
        measured: [Vec::new(), Vec::new()],
        samples: schedule.len(),
        counts: Counts::default(),
        late_ms: Vec::with_capacity(schedule.len()),
        backlog_end: 0,
        spans: Vec::with_capacity(schedule.len()),
    };
    for (k, segment) in segments.iter().enumerate() {
        let run = open_loop(addr, pool, oracle, segment, len);
        let dilation = track.mark();
        if !run.outcomes.is_empty() {
            let p = latency_percentiles(&run.outcomes, &[0.5, 0.9]);
            phase.p50.push(p[0] / dilation);
            phase.p90.push(p[1] / dilation);
            phase.measured[0].push(p[0]);
            phase.measured[1].push(p[1]);
        }
        phase.counts.add(&run.counts);
        phase.late_ms.extend(run.late_ms);
        phase.backlog_end += run.backlog_end;
        phase
            .spans
            .extend(run.spans.into_iter().map(|span| (k, span)));
        if let Some(cold) = cold.as_deref_mut() {
            cold.after_segment(k, track);
        }
    }
    phase
}

/// The closed-loop phase, run as segments that each drain before the next
/// starts; returns each segment's completion rate at reference host speed
/// and as measured, and the summed counts.
fn closed_phase(
    addr: SocketAddr,
    pool: &[Tensor],
    oracle: &[Vec<u32>],
    seed: u64,
    phase_s: f64,
    track: &mut Track,
    cold: &mut ColdStarts,
) -> (Vec<f64>, Vec<f64>, Counts) {
    let (len, n) = windows(phase_s, CLOSED_SEGMENT_S);
    let mut rates = Vec::with_capacity(n);
    let mut measured = Vec::with_capacity(n);
    let mut counts = closed_loop(addr, pool, oracle, seed ^ 0x3A53, CLOSED_WARMUP_S).counts;
    track.mark();
    for k in 0..n {
        let run = closed_loop(addr, pool, oracle, seed ^ ((k as u64) << 40), len);
        rates.push(run.rps * track.mark());
        measured.push(run.rps);
        counts.add(&run.counts);
        cold.after_segment(k, track);
    }
    (rates, measured, counts)
}

/// Runs one pass of the serving workload; `traced` adds the per-layer
/// measurements and writes the request spans out.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Pass {
    let pool = input_pool(seed);
    // Latency percentiles need more samples than the capacity does.
    let open_s = seconds * 2.0 / 3.0;
    let closed_s = seconds - open_s;
    let schedule = poisson_schedule(seed, OFFERED_RPS, open_s, POOL);

    let mut track = Track::start();
    let mut cold = ColdStarts {
        pool: &pool,
        times: Vec::new(),
        measured: Vec::new(),
        mismatches: 0,
    };
    for _ in 1..SETUPS_BEFORE {
        cold.start(&mut track).fleet.shutdown();
    }
    let stack = cold.start(&mut track);
    let addr = stack.fleet.router.local_addr();

    // Warm the connections, allocators and caches before measuring, at the
    // offered rate so the replicas' latency windows (kept since start)
    // hold nothing unlike phase 1; the answers are still checked.
    let warm_schedule = poisson_schedule(seed ^ 0x3A53, OFFERED_RPS, WARMUP_S, POOL);
    let warm = open_loop(addr, &pool, &stack.oracle, &warm_schedule, WARMUP_S);
    track.mark();

    // Stage times are summed over the two measured phases only: the cold
    // starts' oracle inferences land in the same histograms.
    let mut stages = Vec::new();
    let stages_before = stage_totals(ENGINE_LABEL);
    let replicas_start = stack.fleet.replica_metrics();
    let open = open_phase(
        addr,
        &pool,
        &stack.oracle,
        &schedule,
        open_s,
        &mut track,
        Some(&mut cold),
    );
    let replicas_open = stack.fleet.replica_metrics();
    add_stage_delta(&mut stages, &stages_before, &stage_totals(ENGINE_LABEL));
    let stages_before = stage_totals(ENGINE_LABEL);
    let (rates, measured_rates, closed) = closed_phase(
        addr,
        &pool,
        &stack.oracle,
        seed,
        closed_s,
        &mut track,
        &mut cold,
    );
    let replicas_closed = stack.fleet.replica_metrics();
    add_stage_delta(&mut stages, &stages_before, &stage_totals(ENGINE_LABEL));
    let (setup_s, setup_mismatches) = (cold.times, cold.mismatches);
    let measured_setup_s = median(&cold.measured);
    let measured = open.measured_latency();

    let lat = open.latency();
    let mut late = open.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let late_p99 = if late.is_empty() {
        0.0
    } else {
        nearest_rank(&late, 0.99)
    };
    let valid = late_p99 <= LATE_LIMIT_MS && open.backlog_end * 100 <= open.samples;

    let mut pass = Pass::new();
    pass.e2e = vec![
        ("setup_s", median(&setup_s)),
        ("lat_p50_ms", lat[0]),
        ("lat_p90_ms", lat[1]),
        ("capacity_rps", median(&rates)),
    ];
    // Set-up requests count too: one routed request per cold start.
    let phases = [warm.counts, open.counts, closed];
    pass.attempted = setup_s.len() as u64 + phases.iter().map(|c| c.sent).sum::<u64>();
    pass.failed = setup_mismatches + phases.iter().map(Counts::unsuccessful).sum::<u64>();
    pass.mismatched = setup_mismatches + phases.iter().map(|c| c.mismatched).sum::<u64>();
    pass.valid = valid;
    pass.dilation = track.median();
    pass.manifest = vec![
        ("setup_s_measured", crate::num(measured_setup_s)),
        ("lat_p50_ms_measured", crate::num(measured[0])),
        ("lat_p90_ms_measured", crate::num(measured[1])),
        ("capacity_rps_measured", crate::num(median(&measured_rates))),
        ("kernel_threads", "1".to_string()),
        ("offered_rps", format!("{OFFERED_RPS}")),
        ("window", WINDOW.to_string()),
        ("replicas", REPLICAS.to_string()),
        ("max_batch", MAX_BATCH.to_string()),
        ("batch_window_ms", "0".to_string()),
        ("engine", format!("\"{ENGINE_LABEL}\"")),
        ("scheme", format!("\"{SCHEME}\"")),
        ("setups", setup_s.len().to_string()),
        ("open_segment_s", format!("{OPEN_SEGMENT_S}")),
        ("closed_segment_s", format!("{CLOSED_SEGMENT_S}")),
        ("open_samples", open.samples.to_string()),
        ("open_segments", open.p50.len().to_string()),
        (
            "p90_supported_per_segment",
            supports(open.samples / open.p50.len().max(1), 0.9).to_string(),
        ),
        ("closed_segments", rates.len().to_string()),
        ("warmup_loop", warm.counts.json()),
        ("open_loop", open.counts.json()),
        ("closed_loop", closed.json()),
        ("gen_late_ms_p99", format!("{late_p99}")),
        ("gen_backlog_end", open.backlog_end.to_string()),
    ];

    if traced {
        // A short open-loop pass straight at one replica, at the rate each
        // replica sees behind the router, prices the router hop.
        let direct_s = (open_s / 4.0).clamp(0.5, 3.0);
        let direct_schedule = poisson_schedule(
            seed ^ 0xD1EC7,
            OFFERED_RPS / REPLICAS as f64,
            direct_s,
            POOL,
        );
        let direct = open_phase(
            stack.fleet.replicas[0].local_addr(),
            &pool,
            &stack.oracle,
            &direct_schedule,
            direct_s,
            &mut track,
            None,
        );
        pass.attempted += direct.counts.sent;
        pass.failed += direct.counts.unsuccessful();
        pass.mismatched += direct.counts.mismatched;
        let direct_p50 = direct.latency()[0];
        let router = stack.fleet.shutdown();

        let engine = &stack.engine;
        let b1 = single(&pool[0]);
        let b8 = {
            let mut data = Vec::new();
            for x in &pool[..8] {
                data.extend_from_slice(x.data());
            }
            Tensor::from_vec(data, [8, 1, 16, 16]).expect("batch of eight")
        };
        let budget = Duration::from_millis(400);
        track.mark();
        let b1_us = time_us(budget, || {
            std::hint::black_box(engine.infer_batch(std::hint::black_box(&b1)));
        }) / track.mark();
        let b8_us = time_us(budget, || {
            std::hint::black_box(engine.infer_batch(std::hint::black_box(&b8)));
        }) / track.mark();
        // The replicas' and stages' own times span the whole run.
        let dilation = track.median();

        let server_p50 = replicas_open
            .iter()
            .map(|m| m.latency_p50_us as f64)
            .sum::<f64>()
            / REPLICAS as f64
            / dilation;
        let server_p95 = replicas_open
            .iter()
            .map(|m| m.latency_p95_us as f64)
            .sum::<f64>()
            / REPLICAS as f64
            / dilation;
        let open_batch = mean_batch(&replicas_start, &replicas_open);
        let engine_at_batch = b1_us + (b8_us - b1_us) * (open_batch - 1.0) / 7.0;
        let ok: Vec<f64> = router.backends.iter().map(|b| b.ok as f64).collect();
        let skew = ok.iter().cloned().fold(0.0, f64::max)
            / ok.iter().cloned().fold(f64::MAX, f64::min).max(1.0);
        let routed = router.completed + router.failed + router.rejected;
        let all = [open.counts, closed];
        let sum = |f: fn(&Counts) -> u64| all.iter().map(f).sum::<u64>() as f64;

        let mut layers: Vec<(String, f64)> = vec![
            ("gen.late_ms_p99".into(), late_p99),
            ("gen.backlog_end".into(), open.backlog_end as f64),
            ("client.sent".into(), sum(|c| c.sent)),
            ("client.ok".into(), sum(|c| c.ok)),
            ("client.failed".into(), sum(|c| c.failed)),
            ("client.refused".into(), sum(|c| c.refused)),
            ("router.overhead_us".into(), (lat[0] - direct_p50) * 1e3),
            (
                "router.retries".into(),
                router.backends.iter().map(|b| b.retries).sum::<u64>() as f64,
            ),
            ("router.rejected".into(), router.rejected as f64),
            ("router.backend_skew".into(), skew),
            ("serve.server_p50_us".into(), server_p50),
            ("serve.server_p95_us".into(), server_p95),
            ("serve.queue_wait_us".into(), server_p50 - engine_at_batch),
            ("serve.open_mean_batch".into(), open_batch),
            (
                "serve.mean_batch".into(),
                mean_batch(&replicas_open, &replicas_closed),
            ),
            (
                "serve.max_queue_depth".into(),
                replicas_closed
                    .iter()
                    .map(|m| m.max_queue_depth)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            (
                "serve.shed".into(),
                replicas_closed.iter().map(|m| m.shed).sum::<u64>() as f64,
            ),
            (
                "serve.expired".into(),
                replicas_closed.iter().map(|m| m.expired).sum::<u64>() as f64,
            ),
            (
                "serve.wire_bytes_per_req".into(),
                (router.bytes_in + router.bytes_out) as f64 / routed.max(1) as f64,
            ),
            ("engine.b1_us".into(), b1_us),
            ("engine.b8_us".into(), b8_us),
        ];
        for (stage, calls, sum) in &stages {
            layers.push((
                format!("stage.{stage}_us"),
                sum / (*calls).max(1) as f64 / dilation,
            ));
        }
        pass.layers = layers;
        pass.spans = render_spans(&open.spans);
    } else {
        stack.fleet.shutdown();
    }
    pass
}

fn render_spans(spans: &[(usize, Span)]) -> String {
    let mut out = String::from("id\tsegment\tdue_us\tsent_us\tdone_us\toutcome\n");
    for (i, (segment, s)) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        let outcome = match s.outcome {
            Outcome::Ok(_) => "ok",
            Outcome::Failed => "failed",
            Outcome::Refused => "refused",
        };
        out.push_str(&format!(
            "{i}\t{segment}\t{}\t{}\t{}\t{outcome}\n",
            s.due_us,
            opt(s.sent_us),
            opt(s.done_us)
        ));
    }
    out
}
