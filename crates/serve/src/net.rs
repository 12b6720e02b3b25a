//! The TCP front-end shared by every listener in the serving stack: the
//! pipelined wire front-end ([`FrontEnd`]) behind [`SocketServer`] and
//! `qcn_router::Router`, and the scrape endpoint [`MetricsHttp`].
//!
//! ## Connection model
//!
//! A [`FrontEnd`] owns the accept thread, and every accepted connection
//! gets a **reader** and a **writer** thread. The reader parses
//! length-prefixed request frames ([`crate::wire`]) and hands each to the
//! component's [`Handler`], which answers at once
//! ([`WriterItem::Ready`]) or returns a ticket ([`WriterItem::Wait`]) — it
//! never waits for the answer, so one connection can pipeline an
//! arbitrary number of in-flight requests. The writer resolves the items
//! strictly in arrival order and streams the response frames back, so
//! responses on a connection arrive in request order, each echoing the
//! client's request id. Consecutive ready responses share one flush.
//!
//! The handler is the only per-component part:
//!
//! * [`SocketServer`] submits into [`Server::submit`] and waits on the
//!   [`Pending`] ticket; submission-time rejections (unknown model, bad
//!   geometry, queue full, shutting down) are answered inline as typed
//!   error frames, so remote clients see exactly the
//!   [`SubmitError`](crate::SubmitError) / [`ServeError`](crate::ServeError)
//!   variants an in-process caller sees.
//! * The router applies its admission budget and dispatches to a replica;
//!   its ticket is the request's response channel.
//!
//! Stats frames ([`crate::wire::WireFrame::Stats`]) are answered inline
//! with the component's live Prometheus text.
//!
//! Each front-end is named after its component (`"serve"`, `"router"`).
//! The name prefixes its thread names, its chaos sites
//! (`{name}.net.read` after a frame is read, `{name}.net.write` before a
//! response is written) and its five wire series ([`WireMetrics`]).
//!
//! ## Metrics endpoint
//!
//! [`MetricsHttp`] is a second, independent listener on the same accept
//! loop, speaking just enough HTTP/1.1 to serve `GET /metrics` as
//! Prometheus text exposition — point a scraper at it while the wire
//! protocol stays binary-only.
//!
//! ## Malformed input
//!
//! A frame that exceeds the size limit or fails to parse increments the
//! `malformed_frames` counter and closes the connection: once framing is
//! violated, byte boundaries can no longer be trusted, so resynchronizing
//! would risk misrouting tensors. Validation happens before the handler
//! sees the frame, so malformed bytes never reach a shared upstream.
//!
//! ## Shutdown
//!
//! [`FrontEnd::shutdown`] first stops accepting, then half-closes the
//! read side of every live connection: readers see EOF and stop handing
//! in frames, writers drain every already-accepted request and deliver its
//! response. [`SocketServer::shutdown`] invokes the inner
//! [`Server::shutdown`] only after all connections are drained and joined
//! — no request accepted over the wire is ever silently dropped.

use crate::metrics::MetricsSnapshot;
use crate::server::{Pending, Server};
use crate::wire::{
    decode_request_frame, encode_response, encode_stats_response, read_frame, write_frame,
    WireError, WireFrame, WireResponse,
};
use qcn_telemetry::{Counter, Gauge, Registry};
use std::io::{self, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What the reader hands the writer for one request, in arrival order.
#[derive(Debug)]
pub enum WriterItem<T> {
    /// Answerable immediately (submission rejection, stats pull): the
    /// encoded response payload.
    Ready(Vec<u8>),
    /// Accepted under request id `.0`: resolve the ticket, then answer.
    Wait(u64, T),
}

/// The per-component half of a [`FrontEnd`]: what one well-formed frame
/// turns into.
pub trait Handler: Send + Sync + 'static {
    /// What an accepted request waits on until its answer exists.
    type Ticket: Send + 'static;

    /// Handles one decoded `frame` on its connection's reader thread;
    /// `payload` is the raw frame it was decoded from. Must not block on
    /// the answer — return a ticket instead. Takes the `Arc` so a handler
    /// can hand itself to the work it starts.
    fn handle(self: &Arc<Self>, frame: WireFrame, payload: Vec<u8>) -> WriterItem<Self::Ticket>;

    /// Blocks until `ticket` is answered and returns the encoded response
    /// for request `id`. Called on the writer thread, strictly in arrival
    /// order.
    fn resolve(&self, id: u64, ticket: Self::Ticket) -> Vec<u8>;
}

/// The five wire series of one front-end, registered in its owner's
/// registry as `qcn_{name}_…`.
#[derive(Debug, Clone)]
pub struct WireMetrics {
    name: &'static str,
    /// `qcn_{name}_connections_accepted_total`.
    pub accepted: Counter,
    /// `qcn_{name}_connections_active`.
    pub active: Gauge,
    /// `qcn_{name}_malformed_frames_total`.
    pub malformed: Counter,
    /// `qcn_{name}_wire_bytes_total{direction="in"}`: frame headers and
    /// payloads read.
    pub bytes_in: Counter,
    /// `qcn_{name}_wire_bytes_total{direction="out"}`.
    pub bytes_out: Counter,
}

impl WireMetrics {
    /// Gets or registers the wire series of the front-end named `name` in
    /// `registry`.
    pub fn register(registry: &Registry, name: &'static str) -> WireMetrics {
        let bytes = |direction| {
            registry.counter(
                &format!("qcn_{name}_wire_bytes_total"),
                &[("direction", direction)],
                "wire bytes transferred (frame headers + payloads)",
            )
        };
        WireMetrics {
            name,
            accepted: registry.counter(
                &format!("qcn_{name}_connections_accepted_total"),
                &[],
                "socket connections accepted by the front-end",
            ),
            active: registry.gauge(
                &format!("qcn_{name}_connections_active"),
                &[],
                "socket connections currently open",
            ),
            malformed: registry.counter(
                &format!("qcn_{name}_malformed_frames_total"),
                &[],
                "frames rejected as unparseable (each closes its connection)",
            ),
            bytes_in: bytes("in"),
            bytes_out: bytes("out"),
        }
    }
}

/// One listener's accept thread and the flag that stops it.
struct Acceptor {
    local_addr: SocketAddr,
    open: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Acceptor {
    /// Starts a thread that passes every accepted connection to
    /// `on_accept` until [`stop`](Self::stop).
    fn spawn(
        listener: TcpListener,
        thread_name: String,
        mut on_accept: impl FnMut(TcpStream) + Send + 'static,
    ) -> io::Result<Acceptor> {
        let local_addr = listener.local_addr()?;
        let open = Arc::new(AtomicBool::new(true));
        let thread = {
            let open = Arc::clone(&open);
            std::thread::Builder::new()
                .name(thread_name)
                .spawn(move || accept_loop(&listener, &open, &mut on_accept))?
        };
        Ok(Acceptor {
            local_addr,
            open,
            thread: Mutex::new(Some(thread)),
        })
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the accept thread. Idempotent.
    fn stop(&self) {
        self.open.store(false, Ordering::SeqCst);
        if let Some(handle) = self.thread.lock().expect("accept handle lock").take() {
            // Unblock the accept call with a throwaway connection.
            let _ = TcpStream::connect(wakeup_addr(self.local_addr));
            let _ = handle.join();
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where to connect to wake a listener bound on `addr` (an unspecified
/// bind address is not connectable — use loopback on the same port).
fn wakeup_addr(addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), addr.port())
    } else {
        addr
    }
}

/// Accepts until the open flag drops; an accept error while open (a
/// transient `EMFILE`, say) skips that connection, never the listener.
fn accept_loop(listener: &TcpListener, open: &AtomicBool, on_accept: &mut impl FnMut(TcpStream)) {
    loop {
        let accepted = listener.accept();
        if !open.load(Ordering::SeqCst) {
            return; // includes the shutdown wake-up connection
        }
        if let Ok((stream, _)) = accepted {
            on_accept(stream);
        }
    }
}

/// One live connection's threads and the stream handle used to interrupt
/// them during shutdown.
struct Connection {
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

impl Connection {
    fn is_finished(&self) -> bool {
        self.reader.is_finished() && self.writer.is_finished()
    }

    fn join(self) {
        let _ = self.reader.join();
        let _ = self.writer.join();
    }
}

/// Decrements the active-connection gauge when the last per-connection
/// thread exits, whichever thread that is.
struct ConnGuard(Gauge);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// The pipelined wire front-end: an accept thread plus a reader and a
/// writer thread per connection, feeding one [`Handler`]. See the module
/// docs for the connection model.
pub struct FrontEnd {
    acceptor: Acceptor,
    conns: Arc<Mutex<Vec<Connection>>>,
}

impl FrontEnd {
    /// Starts accepting connections on `listener` for `handler`, counting
    /// into `wire` (whose name also names the threads and chaos sites).
    pub fn start<H: Handler>(
        listener: TcpListener,
        handler: Arc<H>,
        wire: WireMetrics,
    ) -> io::Result<FrontEnd> {
        let conns: Arc<Mutex<Vec<Connection>>> = Arc::default();
        let acceptor = {
            let conns = Arc::clone(&conns);
            Acceptor::spawn(
                listener,
                format!("qcn-{}-accept", wire.name),
                move |stream| {
                    let mut conns = conns.lock().expect("connection list lock");
                    // Opportunistic sweep: join connections that already
                    // hung up so a long-running listener does not
                    // accumulate dead handles.
                    let (dead, live) = std::mem::take(&mut *conns)
                        .into_iter()
                        .partition(Connection::is_finished);
                    *conns = live;
                    dead.into_iter().for_each(Connection::join);
                    // A failed stream clone just drops the connection.
                    if let Ok(conn) = spawn_connection(stream, &handler, &wire) {
                        conns.push(conn);
                    }
                },
            )?
        };
        Ok(FrontEnd { acceptor, conns })
    }

    /// The bound address (resolves port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr
    }

    /// Whether the front-end still accepts connections.
    pub(crate) fn is_open(&self) -> bool {
        self.acceptor.is_open()
    }

    /// Graceful shutdown: stop accepting, half-close every connection so
    /// its reader stops handing in frames, let the writers drain every
    /// accepted request's response, and join the connection threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.acceptor.stop();
        let conns = std::mem::take(&mut *self.conns.lock().expect("connection list lock"));
        for conn in conns {
            // Readers stop at EOF; already-read requests stay in flight and
            // their responses are still written before the writer exits.
            let _ = conn.stream.shutdown(Shutdown::Read);
            conn.join();
        }
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_connection<H: Handler>(
    stream: TcpStream,
    handler: &Arc<H>,
    wire: &WireMetrics,
) -> io::Result<Connection> {
    // Response frames are small relative to Nagle's coalescing window and
    // the client blocks on them; never trade their latency for batching.
    stream.set_nodelay(true)?;
    wire.accepted.inc();
    wire.active.inc();
    let guard = Arc::new(ConnGuard(wire.active.clone()));
    let (tx, rx) = mpsc::channel();
    let reader = {
        let (stream, handler, wire) = (stream.try_clone()?, Arc::clone(handler), wire.clone());
        let guard = Arc::clone(&guard);
        std::thread::Builder::new()
            .name(format!("qcn-{}-read", wire.name))
            .spawn(move || {
                connection_reader(stream, &handler, &wire, &tx);
                drop(guard);
            })?
    };
    let writer = {
        let (stream, handler, wire) = (stream.try_clone()?, Arc::clone(handler), wire.clone());
        std::thread::Builder::new()
            .name(format!("qcn-{}-write", wire.name))
            .spawn(move || {
                connection_writer(stream, &*handler, &wire, &rx);
                drop(guard);
            })?
    };
    Ok(Connection {
        stream,
        reader,
        writer,
    })
}

/// Parses and validates request frames and hands them to the handler;
/// never blocks on results.
fn connection_reader<H: Handler>(
    stream: TcpStream,
    handler: &Arc<H>,
    wire: &WireMetrics,
    tx: &mpsc::Sender<WriterItem<H::Ticket>>,
) {
    let site = format!("{}.net.read", wire.name);
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // clean EOF at a frame boundary
            Err(e) => {
                if e.kind() == ErrorKind::InvalidData {
                    // Oversized announced frame: framing is untrustworthy.
                    wire.malformed.inc();
                    let _ = reader.get_ref().shutdown(Shutdown::Both);
                }
                break;
            }
        };
        // Chaos site `{name}.net.read`: stall the reader (delay) or tear
        // the connection down mid-stream (reset) after a frame arrives.
        // The client sees an io error / EOF — a typed failure, and the
        // pipeline for already-accepted work still drains.
        if qcn_chaos::hit(&site).is_some() {
            let _ = reader.get_ref().shutdown(Shutdown::Both);
            break;
        }
        wire.bytes_in.add(payload.len() as u64 + 4);
        let Ok(frame) = decode_request_frame(&payload) else {
            wire.malformed.inc();
            let _ = reader.get_ref().shutdown(Shutdown::Both);
            break;
        };
        if tx.send(handler.handle(frame, payload)).is_err() {
            break; // writer is gone (write error); stop reading
        }
    }
    // Dropping `tx` lets the writer finish once it has drained the
    // already-accepted requests.
}

/// Resolves items in arrival order and streams response frames back.
fn connection_writer<H: Handler>(
    stream: TcpStream,
    handler: &H,
    wire: &WireMetrics,
    rx: &mpsc::Receiver<WriterItem<H::Ticket>>,
) {
    let site = format!("{}.net.write", wire.name);
    let mut writer = BufWriter::new(stream);
    loop {
        // Take the next item without blocking if one is ready; flush the
        // buffered frames before going to sleep, so consecutive responses
        // share one syscall while a lone response still leaves promptly.
        let item = match rx.try_recv() {
            Ok(item) => item,
            Err(mpsc::TryRecvError::Disconnected) => break,
            Err(mpsc::TryRecvError::Empty) => {
                if writer.flush().is_err() {
                    break;
                }
                match rx.recv() {
                    Ok(item) => item,
                    Err(_) => break,
                }
            }
        };
        let payload = match item {
            WriterItem::Ready(payload) => payload,
            WriterItem::Wait(id, ticket) => handler.resolve(id, ticket),
        };
        // Chaos site `{name}.net.write`: delay, reset before the frame, or
        // emit a truncated frame then close — the client's framing layer
        // must turn the torn frame into a typed io error, never a
        // misparsed tensor.
        match qcn_chaos::hit(&site) {
            None => {}
            Some(qcn_chaos::Fault::Truncate(n)) => {
                let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
                framed.extend_from_slice(&payload);
                framed.truncate(n.min(framed.len().saturating_sub(1)).max(1));
                let _ = writer.write_all(&framed);
                break;
            }
            Some(_) => break,
        }
        match write_frame(&mut writer, &payload) {
            Ok(n) => wire.bytes_out.add(n),
            Err(_) => break,
        }
    }
    let _ = writer.flush();
    let _ = writer.get_ref().shutdown(Shutdown::Both);
    // Unanswered tickets (write error, or rejection frames we could not
    // deliver) are dropped here; the work behind them still completes.
}

/// The batching server's handler: submit, and wait on the [`Pending`]
/// ticket.
impl Handler for Server {
    type Ticket = Pending;

    fn handle(self: &Arc<Self>, frame: WireFrame, _payload: Vec<u8>) -> WriterItem<Pending> {
        match frame {
            WireFrame::Infer(request) => match self.submit(&request.model, request.input) {
                Ok(pending) => WriterItem::Wait(request.id, pending),
                Err(e) => WriterItem::Ready(encode_response(&WireResponse {
                    id: request.id,
                    result: Err(WireError::Submit(e)),
                })),
            },
            // Stats pulls are answered inline from the live registries —
            // they never enter the batching queue, but still flow through
            // the writer so responses keep submission order.
            WireFrame::Stats { id } => {
                WriterItem::Ready(encode_stats_response(id, &self.prometheus()))
            }
        }
    }

    fn resolve(&self, id: u64, pending: Pending) -> Vec<u8> {
        encode_response(&WireResponse {
            id,
            result: pending.wait().map_err(WireError::Serve),
        })
    }
}

/// A TCP front-end over a running [`Server`].
///
/// # Examples
///
/// ```
/// use qcn_capsnet::{ModelQuant, ShallowCaps, ShallowCapsConfig};
/// use qcn_fixed::RoundingScheme;
/// use qcn_serve::{client::Client, FakeQuantEngine, ModelRegistry, ServeConfig, Server};
/// use qcn_serve::net::SocketServer;
/// use qcn_tensor::Tensor;
/// use std::sync::Arc;
///
/// let model = ShallowCaps::new(ShallowCapsConfig::small(1), 0);
/// let config = ModelQuant::uniform(3, 5, RoundingScheme::RoundToNearest);
/// let mut registry = ModelRegistry::new();
/// registry
///     .register("shallow", FakeQuantEngine::new(&model, config, [1, 16, 16]))
///     .unwrap();
/// let server = Arc::new(Server::start(registry, ServeConfig::default()));
/// let net = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0").unwrap();
///
/// let mut client = Client::connect(net.local_addr()).unwrap();
/// let capsules = client.infer("shallow", &Tensor::zeros([1, 16, 16])).unwrap();
/// assert_eq!(capsules.dims(), &[10, 8]);
/// drop(client);
/// let metrics = net.shutdown();
/// assert_eq!(metrics.completed, 1);
/// assert_eq!(metrics.connections_accepted, 1);
/// ```
pub struct SocketServer {
    server: Arc<Server>,
    front: FrontEnd,
}

impl SocketServer {
    /// Binds `addr` and starts accepting connections for `server`.
    /// Bind to port 0 to let the OS pick (see [`local_addr`](Self::local_addr)).
    pub fn bind(server: Arc<Server>, addr: impl ToSocketAddrs) -> io::Result<SocketServer> {
        SocketServer::from_listener(server, TcpListener::bind(addr)?)
    }

    /// Starts accepting connections on an already-bound listener.
    ///
    /// This is the hook for callers that need bind-time socket options the
    /// std API does not expose — e.g. `qcn-router`'s restart tests bind
    /// with `SO_REUSEADDR` so a replica can come back on a port that still
    /// holds `TIME_WAIT` sockets from its previous life.
    pub fn from_listener(server: Arc<Server>, listener: TcpListener) -> io::Result<SocketServer> {
        let wire = server.metrics_sink().wire.clone();
        let front = FrontEnd::start(listener, Arc::clone(&server), wire)?;
        Ok(SocketServer { server, front })
    }

    /// The bound address (resolves port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The inner batching server (for in-process submissions alongside
    /// the socket traffic, and for live metrics).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Graceful shutdown: drain and join the front-end
    /// ([`FrontEnd::shutdown`]), then shut the inner [`Server`] down.
    /// Returns the final metrics. Idempotent.
    pub fn shutdown(&self) -> MetricsSnapshot {
        self.front.shutdown();
        self.server.shutdown()
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SocketServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketServer")
            .field("local_addr", &self.local_addr())
            .field("open", &self.front.is_open())
            .finish()
    }
}

/// Upper bound on one scrape request's header block; a peer sending more
/// without finishing its headers is cut off.
const MAX_HTTP_REQUEST_BYTES: usize = 8 << 10;

/// A minimal HTTP/1.1 exporter serving `GET /metrics` as Prometheus text
/// (content type `text/plain; version=0.0.4`) from a [`Server`]'s
/// [`prometheus`](Server::prometheus) rendering. Every other path answers
/// 404; every response closes its connection (`Connection: close`), which
/// Prometheus scrapers handle fine at scrape rates.
///
/// # Examples
///
/// ```no_run
/// use qcn_serve::net::MetricsHttp;
/// use qcn_serve::{ModelRegistry, ServeConfig, Server};
/// use std::sync::Arc;
///
/// let server = Arc::new(Server::start(ModelRegistry::new(), ServeConfig::default()));
/// let exporter = MetricsHttp::bind(Arc::clone(&server), "127.0.0.1:9095").unwrap();
/// println!("scrape http://{}/metrics", exporter.local_addr());
/// ```
pub struct MetricsHttp {
    acceptor: Acceptor,
}

impl MetricsHttp {
    /// Binds `addr` and starts serving scrapes for `server`. Bind to port
    /// 0 to let the OS pick.
    pub fn bind(server: Arc<Server>, addr: impl ToSocketAddrs) -> io::Result<MetricsHttp> {
        // Scrapes are rare and cheap, so connections are served
        // sequentially on the accept thread; a short timeout keeps a
        // stalled peer from blocking the next scrape for long.
        let acceptor = Acceptor::spawn(
            TcpListener::bind(addr)?,
            "qcn-metrics-http".to_string(),
            move |stream| {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = serve_scrape(stream, &server);
            },
        )?;
        Ok(MetricsHttp { acceptor })
    }

    /// The bound address (resolves port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr
    }

    /// Stops the listener and joins its thread. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&self) {
        self.acceptor.stop();
    }
}

impl std::fmt::Debug for MetricsHttp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHttp")
            .field("local_addr", &self.local_addr())
            .field("open", &self.acceptor.is_open())
            .finish()
    }
}

/// Answers one scrape connection: read the request head, route on the
/// request line, write the response, close.
fn serve_scrape(mut stream: TcpStream, server: &Arc<Server>) -> io::Result<()> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HTTP_REQUEST_BYTES {
            return Ok(()); // header block too large; just hang up
        }
        match stream.read(&mut buf)? {
            0 => return Ok(()), // peer hung up mid-request
            n => head.extend_from_slice(&buf[..n]),
        }
    }
    let request_line = head
        .split(|&b| b == b'\r')
        .next()
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
        let body = server.prometheus();
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_string()
    };
    stream.write_all(response.as_bytes())?;
    stream.shutdown(Shutdown::Both)
}
