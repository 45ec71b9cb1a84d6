//! The choice-wire server: a registry of named queues, one session per
//! connection.
//!
//! # Sessions and bindings
//!
//! The in-process API is organised per *thread*: you [`register`] a session
//! and every operation flows through the returned handle. The server maps
//! that structure onto the network one-to-one — each accepted TCP connection
//! binds a [`QueueBinding`] on one named queue of the shared
//! [`QueueRegistry`] and registers its own session handle on that queue's
//! backend (through [`register_dyn`]). The session API's guarantees come
//! along for free: a per-connection deterministic RNG stream and
//! per-connection [`HandleStats`](choice_pq::HandleStats) that roll up into
//! per-queue aggregates.
//!
//! A connection starts bound to the [`DEFAULT_QUEUE`] (when it exists — a
//! [`PqServer::spawn`] server always installs one, so a single-queue server
//! needs no `UseQueue` at all) and may rebind with `UseQueue`. Every session
//! operation passes the binding's admission gate first: in-flight quota,
//! token-bucket rate, drop tombstones. Refusals are typed wire errors and
//! first-class counters, never silent drops.
//!
//! # Backpressure: the credit window
//!
//! Clients pipeline: they may send up to their credit window of requests
//! before reading a response. The server mirrors the window on the response
//! side — responses accumulate in the connection's write buffer and are
//! flushed either when the window fills or when the request stream pauses —
//! so one syscall carries up to a window of responses, and a client that
//! stops reading eventually blocks the connection's writes (TCP does the
//! rest) without unbounded buffering on either side. The window is
//! advertised nowhere and negotiated never: both sides simply bound
//! themselves, which composes safely for any pair of limits.
//!
//! # Protocol errors
//!
//! There is nothing to negotiate: every frame carries the one wire version
//! [`protocol`](crate::protocol) speaks. A frame the decoder refuses — a
//! foreign version stamp, an unknown opcode, a malformed payload — gets one
//! [`ErrorCode::Protocol`] frame, and then the connection closes: after a
//! framing error the byte stream cannot re-synchronise.
//!
//! # Shutdown
//!
//! A [`Request::Shutdown`] frame (or [`PqServer::shutdown`] from the owning
//! process) flips a shared flag and then wakes the accept loop, which blocks
//! in `accept`, with a connection to the listener's own address; the loop
//! drops whatever it accepts once the flag is set, and stops. Connection
//! handlers notice at their next read timeout or request boundary, answer
//! in-flight work, and close. Joining the server then observes every
//! session's final counters.
//!
//! [`register`]: choice_pq::SharedPq::register
//! [`register_dyn`]: choice_pq::DynSharedPq::register_dyn

use std::io::{self, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use choice_obs::{EventKind, Gauge, Histogram, ObsHub, SpanStage, SPAN_STAGES};
use choice_pq::{DynSharedPq, Key, PqHandle};
use choice_registry::{
    QueueBinding, QueueRegistry, QuotaSpec, Refusal, RegistryError, DEFAULT_QUEUE,
};
use parking_lot::Mutex;

use crate::protocol::{
    ErrorCode, QueueListRow, QueueStats, Request, Response, ServiceStats, TraceEcho, WireError,
    MAX_BATCH, WIRE_VERSION,
};

/// Server-side configuration. `DeleteMinBatch` sizes are clamped to the wire
/// limit [`MAX_BATCH`] (requests asking for more are clamped, not refused).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Response credit window: how many responses may accumulate in a
    /// connection's write buffer before a flush is forced. Mirrors the
    /// client's pipelining window; `1` degenerates to flush-per-response.
    pub credit_window: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { credit_window: 64 }
    }
}

impl ServerConfig {
    /// Sets the response credit window.
    ///
    /// # Panics
    ///
    /// Panics if `credit_window == 0`.
    pub fn with_credit_window(mut self, credit_window: usize) -> Self {
        assert!(credit_window > 0, "credit window must be positive");
        self.credit_window = credit_window;
        self
    }
}

/// How often an idle connection handler re-checks the shutdown flag (its
/// read timeout). The accept loop blocks in `accept` instead and is woken
/// for shutdown; it sleeps this long only after a failed `accept`.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Shared across the accept loop and every connection handler.
struct Shared {
    /// The address the listener bound (ephemeral port resolved).
    addr: SocketAddr,
    registry: Arc<QueueRegistry>,
    config: ServerConfig,
    /// The telemetry hub every layer under this server reports into: the
    /// registry's admission gates (installed via `set_obs` at spawn), the
    /// flight recorder the session events and panic dumps land in, and the
    /// `MetricsDump` exposition endpoint.
    obs: Arc<ObsHub>,
    /// When this server started, for the `uptime_seconds` gauge.
    started: Instant,
    /// `uptime_seconds` gauge, refreshed on every `MetricsDump` (gauges are
    /// delta-based, so the refresh adds the seconds elapsed since the last
    /// reported value).
    uptime: Arc<Gauge>,
    /// Per-stage request-processing histograms, `svc_stage_ns{stage=...}`,
    /// pre-resolved at spawn so traced requests never touch the registry's
    /// name map. Indexed by [`SpanStage`].
    stage_ns: [Arc<Histogram>; SPAN_STAGES],
    shutdown: AtomicBool,
    sessions_opened: AtomicU64,
    /// Raw streams of the *live* connections (removed on handler exit).
    /// Shutdown closes them so a handler blocked in a write — a peer that
    /// pipelines but never reads — is unstuck immediately; without this,
    /// `join` could wait forever on a stalled connection.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Shared {
    /// Sets the shutdown flag and wakes the accept loop out of its blocking
    /// `accept` with a connection to the listener's own address (loopback
    /// for a wildcard bind). The flag is set before the wake, so the loop
    /// sees it on whatever it accepts next; once the loop has stopped, the
    /// listener is closed and the wake is simply refused.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Service-wide aggregate: the per-queue snapshots merged over the
    /// retired (dropped-queue) roll-up and the unbound-refusal counter, so
    /// totals stay monotonic across queue drops and session churn.
    fn aggregate_stats(&self) -> ServiceStats {
        let mut totals = self.registry.retired_totals();
        totals.refusals = totals
            .refusals
            .saturating_add(self.registry.unbound_refusals());
        let mut lanes = 0u64;
        let mut queues = Vec::new();
        for snap in self.registry.stats() {
            totals.merge(&snap.totals);
            if let Some(topology) = &snap.topology {
                lanes += topology.lanes as u64;
            }
            queues.push(QueueStats {
                name: snap.name,
                sessions: snap.sessions_total,
                totals: snap.totals,
                approx_len: snap.approx_len,
            });
        }
        ServiceStats {
            sessions: self.sessions_opened.load(Ordering::Relaxed),
            totals,
            lanes,
            queues,
        }
    }

    /// Brings the `uptime_seconds` gauge up to date (gauges are delta-only,
    /// so the refresh adds the seconds elapsed since the last report).
    fn refresh_uptime(&self) {
        let now = self.started.elapsed().as_secs() as i64;
        self.uptime.add(now - self.uptime.value());
    }

    /// Folds one traced request's stage timings into the span ring and the
    /// per-stage histograms.
    fn record_span(&self, trace_id: u64, opcode: u8, stage_ns: [u64; SPAN_STAGES]) {
        self.obs
            .spans()
            .record(trace_id, opcode, self.obs.recorder().now_ns(), stage_ns);
        for (histogram, ns) in self.stage_ns.iter().zip(stage_ns) {
            histogram.record(ns);
        }
    }

    fn queue_list(&self) -> Response {
        Response::QueueList(
            self.registry
                .stats()
                .into_iter()
                .map(|snap| QueueListRow {
                    name: snap.name,
                    backend: snap.backend,
                    instantiated: snap.instantiated,
                    sessions: snap.sessions_total,
                    approx_len: snap.approx_len,
                    refusals: snap.totals.refusals,
                })
                .collect(),
        )
    }
}

/// Maps an admission refusal to its typed wire error. A tombstone refusal
/// stays counted on its dropped queue, which the registry's retired total
/// reads until the queue's last binding closes.
fn refusal_error(refusal: Refusal) -> Response {
    let code = match refusal {
        Refusal::Rate | Refusal::InFlight => ErrorCode::QuotaExceeded,
        Refusal::Dropped => ErrorCode::QueueDropped,
    };
    Response::Error {
        code,
        detail: refusal.to_string(),
    }
}

/// Maps a registry lifecycle error to its typed wire error.
fn registry_error(error: RegistryError) -> Response {
    let code = match &error {
        RegistryError::BadName(_) => ErrorCode::BadQueueName,
        RegistryError::Exists(_) => ErrorCode::QueueExists,
        RegistryError::NotFound(_) => ErrorCode::NoSuchQueue,
        RegistryError::Full { .. } => ErrorCode::RegistryFull,
    };
    Response::Error {
        code,
        detail: error.to_string(),
    }
}

/// The refusal for session operations on a connection with no bound queue
/// (the default queue does not exist, or the bound queue was dropped and the
/// connection has not rebound).
fn unbound_error() -> Response {
    Response::Error {
        code: ErrorCode::NoSuchQueue,
        detail: "no queue is bound to this session (bind one with UseQueue)".to_string(),
    }
}

/// A running choice-wire server.
///
/// Bind with [`PqServer::spawn`] (single queue) or
/// [`PqServer::spawn_registry`] (multi-tenant); the accept loop and every
/// connection run on background threads until a shutdown (wire frame or
/// [`shutdown`](PqServer::shutdown)), after which [`join`](PqServer::join)
/// — or drop — reaps them. Queues stay owned by the registry (and any
/// `Arc`s the caller retained), so their contents survive the server and
/// can be inspected after `join`.
pub struct PqServer {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl PqServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving `queue` as the sole, unlimited [`DEFAULT_QUEUE`] of a fresh
    /// registry — the exact observable behaviour of a single-queue server.
    pub fn spawn(
        queue: Arc<dyn DynSharedPq<u64>>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<PqServer> {
        let registry = Arc::new(QueueRegistry::default());
        registry
            .install(DEFAULT_QUEUE, queue, QuotaSpec::unlimited())
            .expect("fresh registry accepts the default queue");
        Self::spawn_registry(registry, addr, config)
    }

    /// Binds `addr` and starts serving every queue of `registry`.
    /// Connections start bound to the registry's [`DEFAULT_QUEUE`] if one
    /// exists; otherwise they start unbound and must `UseQueue` before
    /// session operations. The server reports into a fresh [`ObsHub`]
    /// ([`obs`](PqServer::obs)), which it also offers to the registry via
    /// [`set_obs`](QueueRegistry::set_obs); if the registry already carries
    /// one, its bindings keep the hub they resolved first.
    pub fn spawn_registry(
        registry: Arc<QueueRegistry>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<PqServer> {
        assert!(config.credit_window > 0, "credit window must be positive");
        let obs = ObsHub::new();
        registry.set_obs(Arc::clone(&obs));
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // `build_info` is the standard Prometheus idiom: a constant-1 gauge
        // whose labels carry the identifying strings. The hub is this
        // server's own, so one increment sets it.
        let build_info = obs.metrics().gauge(
            "build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("wire_version", &WIRE_VERSION.to_string()),
                ("commit", option_env!("GIT_COMMIT").unwrap_or("unknown")),
            ],
        );
        build_info.inc();
        let uptime = obs.metrics().gauge("uptime_seconds", &[]);
        let stage_ns = SpanStage::ALL.map(|stage| {
            obs.metrics()
                .histogram("svc_stage_ns", &[("stage", stage.name())])
        });
        let shared = Arc::new(Shared {
            addr,
            registry,
            config,
            obs,
            started: Instant::now(),
            uptime,
            stage_ns,
            shutdown: AtomicBool::new(false),
            sessions_opened: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("choice-wire-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(PqServer {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The queue registry this server serves (shared — lifecycle calls made
    /// here are visible to connected clients and vice versa).
    pub fn registry(&self) -> &Arc<QueueRegistry> {
        &self.shared.registry
    }

    /// The telemetry hub this server reports into: metrics from every
    /// layer, the flight recorder, and the `MetricsDump` exposition text.
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.shared.obs
    }

    /// Whether a shutdown (local or wire-initiated) has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without waiting: the accept loop is woken and
    /// stops at once, and connections close at their next request boundary.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        // Close the live sockets too: a handler blocked writing to a peer
        // that stopped reading would otherwise never observe the flag, and
        // `join` would hang on it. Closed-socket errors end those handlers
        // promptly; handlers idle in a read notice within one poll interval
        // either way.
        for (_, conn) in self.shared.conns.lock().iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// The aggregated service statistics (live sessions contribute the
    /// counters of their most recently completed request).
    pub fn stats(&self) -> ServiceStats {
        self.shared.aggregate_stats()
    }

    /// Shuts down and joins every server thread, returning the final
    /// aggregated statistics.
    pub fn join(mut self) -> ServiceStats {
        self.join_inner();
        self.shared.aggregate_stats()
    }

    fn join_inner(&mut self) {
        self.shutdown();
        if let Some(accept) = self.accept_thread.take() {
            let connections = accept.join().expect("accept loop panicked");
            for conn in connections {
                let _ = conn.join();
            }
        }
    }
}

impl Drop for PqServer {
    fn drop(&mut self) {
        self.join_inner();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            // The shutdown wake, or a peer that raced it: dropped unserved.
            Ok(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("choice-wire-conn".into())
                    .spawn(move || {
                        // Connection-level I/O errors (peer vanished, reset)
                        // close that connection only; the queues and the
                        // other sessions are unaffected.
                        let _ = serve_connection(stream, conn_shared);
                    });
                match handle {
                    Ok(handle) => connections.push(handle),
                    Err(_) => continue, // thread exhaustion: drop the conn
                }
                // Opportunistically reap finished handlers so a long-lived
                // server does not accumulate dead JoinHandles.
                connections.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Back off so a persistent error (EMFILE) cannot spin the loop.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    connections
}

/// Per-request stage stopwatch for traced (sampled) requests: each
/// [`mark`](SpanTimer::mark) charges the time since the previous mark to a
/// stage. The recv stage is seeded from the read syscall that delivered the
/// frame's bytes (attributed to the first frame decoded from that chunk;
/// later frames of the same chunk cost no read and get 0), decode is
/// charged by the frame loop, admit and queue-op inside the session arms,
/// and flush after the response bytes are written.
struct SpanTimer {
    trace_id: u64,
    opcode: u8,
    last: Instant,
    stage_ns: [u64; SPAN_STAGES],
}

impl SpanTimer {
    fn new(trace_id: u64, opcode: u8, recv_ns: u64, started: Instant) -> Self {
        let mut stage_ns = [0u64; SPAN_STAGES];
        stage_ns[SpanStage::Recv as usize] = recv_ns;
        Self {
            trace_id,
            opcode,
            last: started,
            stage_ns,
        }
    }

    /// Charges the time since the previous mark to `stage` (cumulative, so
    /// a stage may be marked more than once).
    fn mark(&mut self, stage: SpanStage) {
        let now = Instant::now();
        self.stage_ns[stage as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    /// The processing time echoed to the client: decode + admit + queue-op
    /// (recv can include pipeline idle; flush has not happened yet).
    fn server_ns(&self) -> u64 {
        self.stage_ns[SpanStage::Decode as usize]
            .saturating_add(self.stage_ns[SpanStage::Admit as usize])
            .saturating_add(self.stage_ns[SpanStage::QueueOp as usize])
    }

    fn echo(&self) -> TraceEcho {
        TraceEcho {
            trace_id: self.trace_id,
            server_ns: self.server_ns(),
        }
    }
}

/// Serves one connection: a binding + session on the bound queue, a buffered
/// framing loop, and the credit-window flush policy.
///
/// The receive path reads whole chunks into a growable buffer and decodes
/// every complete frame it holds before reading again — a partial frame at
/// the buffer's tail simply waits for the next chunk (never discarded, so a
/// read timeout can never desynchronise the stream), and one `read` syscall
/// typically carries a whole pipeline window of requests.
///
/// The outer loop exists for `UseQueue`: a successful rebind finishes the
/// current session (rolling its counters into its queue), then re-enters
/// with the new binding. Everything connection-scoped (buffers, the socket,
/// the credit counter) lives outside it and survives rebinds.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // Reads poll so the handler notices shutdown while idle.
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut reader = stream.try_clone()?;

    let conn_id = shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
    shared.conns.lock().push((conn_id, stream.try_clone()?));
    let mut writer = BufWriter::new(stream);

    let mut inbuf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut out_scratch = Vec::new();
    let mut batch_buf: Vec<(Key, u64)> = Vec::new();
    // Responses written since the last flush; the credit window bounds it.
    let mut unflushed = 0usize;
    // Duration of the read syscall that delivered the newest chunk,
    // attributed as the recv stage of the first frame decoded from it.
    let mut pending_recv_ns: u64 = 0;
    // The binding the next `'bind` iteration starts from: pre-bound by a
    // successful UseQueue, or named (the initial default-queue bind).
    let mut next_binding: Option<QueueBinding> = None;
    let mut next_name: Option<String> = Some(DEFAULT_QUEUE.to_string());

    let recorder = Arc::clone(shared.obs.recorder());
    recorder.record(EventKind::SessionOpen, "", [conn_id, 0, 0]);
    // While this thread serves, panics dump the hub's flight recorder and
    // span ring (via the process-wide hook) before unwinding; the catch
    // below then confines the damage to this connection — its binding and
    // session drop normally, rolling counters into the queue, and the
    // server keeps serving.
    let scope = shared.obs.panic_scope();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| 'bind: loop {
        let binding: Option<QueueBinding> = match next_binding.take() {
            Some(binding) => Some(binding),
            // A failed initial bind (no default queue) leaves the session
            // unbound: session ops are refused until a UseQueue lands.
            None => next_name
                .take()
                .and_then(|name| shared.registry.bind(&name).ok()),
        };
        let mut session = binding.as_ref().map(|b| b.register());

        let inner = 'conn: loop {
            // Decode and execute every complete frame currently buffered.
            let mut consumed = 0usize;
            while consumed < inbuf.len() {
                let decode_started = Instant::now();
                let (request, trace) = match Request::decode_traced(&inbuf[consumed..]) {
                    Ok((request, trace, used)) => {
                        consumed += used;
                        (request, trace)
                    }
                    Err(e) if e.is_incomplete() => break, // tail frame: read more
                    Err(wire_error) => {
                        // Protocol violations are answered (best-effort) and
                        // then the connection is closed: after a framing
                        // error the byte stream cannot re-synchronise.
                        let response = Response::Error {
                            code: ErrorCode::Protocol,
                            detail: wire_error.to_string(),
                        };
                        crate::protocol::write_response(&mut writer, &response, &mut out_scratch)?;
                        writer.flush()?;
                        break 'conn Err(io::Error::new(io::ErrorKind::InvalidData, wire_error));
                    }
                };
                // A sampled request gets a stage stopwatch; everything
                // else pays exactly one `Option` branch per mark site.
                let mut timer = trace.map(|t| {
                    let recv_ns = std::mem::take(&mut pending_recv_ns);
                    let mut timer =
                        SpanTimer::new(t.trace_id, request.opcode(), recv_ns, decode_started);
                    timer.mark(SpanStage::Decode);
                    timer
                });
                let shutting_down = shared.shutdown.load(Ordering::SeqCst);
                let mut is_shutdown_ack = false;
                let mut rebind: Option<QueueBinding> = None;

                // `None` means the hot batched path already wrote its frame.
                let response: Option<Response> = if shutting_down
                    && !matches!(request, Request::Shutdown | Request::Stats)
                {
                    Some(Response::Error {
                        code: ErrorCode::Unavailable,
                        detail: "server is shutting down".to_string(),
                    })
                } else {
                    match &request {
                        Request::DeleteMinBatch { max } => {
                            match (binding.as_ref(), session.as_mut()) {
                                (Some(b), Some(sess)) => match b.admit_removal() {
                                    Ok(()) => {
                                        if let Some(t) = timer.as_mut() {
                                            t.mark(SpanStage::Admit);
                                        }
                                        // The hot batched path keeps its
                                        // entries vector: drain into it,
                                        // encode from the borrow, reuse the
                                        // allocation next request.
                                        let clamped = (*max).min(MAX_BATCH) as usize;
                                        batch_buf.clear();
                                        sess.delete_min_batch_into(clamped, &mut batch_buf);
                                        b.note_removed(batch_buf.len() as u64);
                                        if let Some(t) = timer.as_mut() {
                                            t.mark(SpanStage::QueueOp);
                                        }
                                        out_scratch.clear();
                                        crate::protocol::encode_batch_response(
                                            &mut out_scratch,
                                            &batch_buf,
                                            timer.as_ref().map(SpanTimer::echo),
                                        );
                                        writer.write_all(&out_scratch)?;
                                        None
                                    }
                                    Err(refusal) => Some(refusal_error(refusal)),
                                },
                                _ => {
                                    shared.registry.note_unbound_refusal();
                                    Some(unbound_error())
                                }
                            }
                        }
                        Request::Insert { key, value } => {
                            Some(match (binding.as_ref(), session.as_mut()) {
                                (Some(b), Some(sess)) => {
                                    if *key == Key::MAX {
                                        // The in-process API panics on the
                                        // reserved key (programmer error); a
                                        // remote peer gets a refusal frame,
                                        // counted against its queue.
                                        b.note_external_refusal();
                                        Response::Error {
                                            code: ErrorCode::ReservedKey,
                                            detail: "key u64::MAX is reserved as the empty-lane sentinel"
                                                .to_string(),
                                        }
                                    } else {
                                        match b.admit_insert(*key) {
                                            Ok(()) => {
                                                if let Some(t) = timer.as_mut() {
                                                    t.mark(SpanStage::Admit);
                                                }
                                                sess.insert(*key, *value);
                                                if let Some(t) = timer.as_mut() {
                                                    t.mark(SpanStage::QueueOp);
                                                }
                                                Response::Inserted
                                            }
                                            Err(refusal) => refusal_error(refusal),
                                        }
                                    }
                                }
                                _ => {
                                    shared.registry.note_unbound_refusal();
                                    unbound_error()
                                }
                            })
                        }
                        Request::DeleteMin => Some(match (binding.as_ref(), session.as_mut()) {
                            (Some(b), Some(sess)) => match b.admit_removal() {
                                Ok(()) => {
                                    if let Some(t) = timer.as_mut() {
                                        t.mark(SpanStage::Admit);
                                    }
                                    let removed = sess.delete_min();
                                    if let Some(t) = timer.as_mut() {
                                        t.mark(SpanStage::QueueOp);
                                    }
                                    match removed {
                                        Some((key, value)) => {
                                            b.note_removed(1);
                                            Response::Entry { key, value }
                                        }
                                        None => Response::Empty,
                                    }
                                }
                                Err(refusal) => refusal_error(refusal),
                            },
                            _ => {
                                shared.registry.note_unbound_refusal();
                                unbound_error()
                            }
                        }),
                        Request::ApproxLen => Some(match binding.as_ref() {
                            // A diagnostic read: not charged against the
                            // rate quota, answered per-queue.
                            Some(b) => Response::Len(b.queue().approx_len_dyn() as u64),
                            None => {
                                shared.registry.note_unbound_refusal();
                                unbound_error()
                            }
                        }),
                        Request::Stats => Some(Response::Stats(shared.aggregate_stats())),
                        Request::Shutdown => {
                            shared.begin_shutdown();
                            is_shutdown_ack = true;
                            Some(Response::ShuttingDown)
                        }
                        Request::CreateQueue {
                            name,
                            backend,
                            quota,
                        } => Some(match shared.registry.create(name, *backend, *quota) {
                            Ok(()) => Response::QueueCreated,
                            Err(e) => registry_error(e),
                        }),
                        Request::DropQueue { name } => {
                            Some(match shared.registry.drop_queue(name) {
                                Ok(()) => Response::QueueDropped,
                                Err(e) => registry_error(e),
                            })
                        }
                        Request::ListQueues => Some(shared.queue_list()),
                        Request::MetricsDump { include_events } => {
                            // A diagnostic read like ApproxLen: answered for
                            // unbound sessions too and charged to no quota.
                            shared.refresh_uptime();
                            Some(Response::MetricsText(
                                shared.obs.render_dump(*include_events),
                            ))
                        }
                        Request::UseQueue { name } => Some(match binding.as_ref() {
                            // Already bound to this live queue: keep the
                            // session instead of opening a second one on
                            // the same queue.
                            Some(b) if b.name() == name && !b.is_dropped() => Response::Using,
                            _ => match shared.registry.bind(name) {
                                Ok(new_binding) => {
                                    rebind = Some(new_binding);
                                    Response::Using
                                }
                                // A failed rebind keeps the current binding.
                                Err(e) => registry_error(e),
                            },
                        }),
                    }
                };
                if let Some(response) = &response {
                    // Everything since the last mark (queue work for session
                    // ops, the whole handling for diagnostic ops) is queue-op
                    // time; marks are cumulative so this never double-counts.
                    if let Some(t) = timer.as_mut() {
                        t.mark(SpanStage::QueueOp);
                    }
                    out_scratch.clear();
                    response.encode_traced(&mut out_scratch, timer.as_ref().map(SpanTimer::echo));
                    writer.write_all(&out_scratch)?;
                }
                unflushed += 1;
                // Publish this session's counters after every request so
                // Stats (served by any connection) sees near-current
                // per-queue totals. The slot mutex is uncontended except
                // during an actual aggregation.
                if let (Some(b), Some(sess)) = (binding.as_ref(), session.as_ref()) {
                    b.publish_stats(sess.stats());
                }
                if is_shutdown_ack || unflushed >= shared.config.credit_window {
                    writer.flush()?;
                    unflushed = 0;
                }
                // The traced frame is finished: whatever flushing happened
                // this round is its flush stage, and the completed span goes
                // to the ring + per-stage histograms. Any leftover read time
                // is dropped too — it belongs to this chunk, not the next
                // traced frame.
                if let Some(mut t) = timer.take() {
                    t.mark(SpanStage::Flush);
                    shared.record_span(t.trace_id, t.opcode, t.stage_ns);
                }
                pending_recv_ns = 0;
                if is_shutdown_ack {
                    break 'conn Ok(());
                }
                if rebind.is_some() {
                    // Hand the already-claimed binding to the next 'bind
                    // iteration; dropping the current session and binding
                    // rolls their counters into the old queue.
                    next_binding = rebind;
                    inbuf.drain(..consumed);
                    writer.flush()?;
                    unflushed = 0;
                    continue 'bind;
                }
            }
            inbuf.drain(..consumed);

            // The buffered requests are answered; the stream is about to
            // block, which ends the credit round — flush.
            if unflushed > 0 {
                writer.flush()?;
                unflushed = 0;
            }
            let read_started = Instant::now();
            match reader.read(&mut chunk) {
                Ok(0) => {
                    break 'conn if inbuf.is_empty() {
                        Ok(()) // clean disconnect at a frame boundary
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            WireError::Truncated { needed: 1 },
                        ))
                    };
                }
                Ok(n) => {
                    pending_recv_ns = read_started.elapsed().as_nanos() as u64;
                    inbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // Idle (possibly mid-frame): nothing was consumed,
                    // nothing is lost. Just check for shutdown and poll
                    // again.
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break 'conn Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break 'conn Err(e),
            }
        };
        // The session drops here; dropping the binding then rolls the
        // slot's final counters (published after every request above) into
        // the queue's closed accumulator.
        break 'bind inner;
    }));
    drop(scope);
    recorder.record(EventKind::SessionClose, "", [conn_id, 0, 0]);
    shared.conns.lock().retain(|(id, _)| *id != conn_id);
    match result {
        Ok(result) => result,
        Err(_) => Err(io::Error::other(
            "connection handler panicked (flight-recorder dump captured)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame_bytes;
    use choice_pq::{MultiQueue, MultiQueueConfig, SharedPq};
    use choice_registry::BackendSpec;

    fn spawn_server(config: ServerConfig) -> PqServer {
        let queue: Arc<dyn DynSharedPq<u64>> = Arc::new(MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(4).with_seed(9),
        ));
        PqServer::spawn(queue, "127.0.0.1:0", config).expect("bind ephemeral")
    }

    fn request_reply(stream: &mut TcpStream, request: &Request) -> Response {
        let mut wire = Vec::new();
        request.encode(&mut wire);
        stream.write_all(&wire).unwrap();
        let mut frame = Vec::new();
        assert!(read_frame_bytes(stream, &mut frame).unwrap());
        Response::decode(&frame).unwrap().0
    }

    /// Raw-socket round trip without the client type: the server speaks the
    /// protocol to anything that frames correctly.
    #[test]
    fn raw_socket_insert_and_delete_roundtrip() {
        let server = spawn_server(ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut wire = Vec::new();
        Request::Insert { key: 5, value: 50 }.encode(&mut wire);
        Request::DeleteMin.encode(&mut wire);
        Request::DeleteMin.encode(&mut wire);
        stream.write_all(&wire).unwrap();
        let mut frame = Vec::new();
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        assert_eq!(Response::decode(&frame).unwrap().0, Response::Inserted);
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        assert_eq!(
            Response::decode(&frame).unwrap().0,
            Response::Entry { key: 5, value: 50 }
        );
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        assert_eq!(Response::decode(&frame).unwrap().0, Response::Empty);
        drop(stream);
        let stats = server.join();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.totals.inserts, 1);
        assert_eq!(stats.totals.removals, 1);
        assert_eq!(stats.totals.failed_removals, 1);
        // The aggregate carries the per-queue breakdown: everything
        // happened on the default queue.
        assert_eq!(stats.queues.len(), 1);
        assert_eq!(stats.queues[0].name, DEFAULT_QUEUE);
        assert_eq!(stats.queues[0].totals.inserts, 1);
    }

    #[test]
    fn reserved_key_is_refused_not_a_panic() {
        let server = spawn_server(ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut wire = Vec::new();
        Request::Insert {
            key: Key::MAX,
            value: 0,
        }
        .encode(&mut wire);
        Request::ApproxLen.encode(&mut wire);
        stream.write_all(&wire).unwrap();
        let mut frame = Vec::new();
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        match Response::decode(&frame).unwrap().0 {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::ReservedKey),
            other => panic!("expected a refusal, got {other:?}"),
        }
        // The connection survives a refusal (only framing errors close it).
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        assert_eq!(Response::decode(&frame).unwrap().0, Response::Len(0));
        drop(stream);
        // Refusals are first-class counters, attributed to the queue.
        let stats = server.join();
        assert_eq!(stats.totals.refusals, 1);
        assert_eq!(stats.queues[0].totals.refusals, 1);
    }

    #[test]
    fn garbage_bytes_get_a_protocol_error_then_a_close() {
        let server = spawn_server(ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // A syntactically valid length prefix followed by a garbage header.
        let mut garbage = 2u32.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0x42, 0x01]);
        stream.write_all(&garbage).unwrap();
        let mut frame = Vec::new();
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        match Response::decode(&frame).unwrap().0 {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        // ...and then EOF: the server closed the poisoned stream.
        assert!(!read_frame_bytes(&mut stream, &mut frame).unwrap());
        // The server itself is still alive for new, well-behaved peers.
        let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
        let mut wire = Vec::new();
        Request::ApproxLen.encode(&mut wire);
        fresh.write_all(&wire).unwrap();
        assert!(read_frame_bytes(&mut fresh, &mut frame).unwrap());
        assert_eq!(Response::decode(&frame).unwrap().0, Response::Len(0));
    }

    /// A registry server whose default queue is an exact, unlimited coarse
    /// heap.
    fn spawn_coarse_heap_server() -> PqServer {
        let registry = Arc::new(QueueRegistry::default());
        registry
            .create(
                DEFAULT_QUEUE,
                BackendSpec::CoarseHeap,
                QuotaSpec::unlimited(),
            )
            .unwrap();
        PqServer::spawn_registry(registry, "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    /// `UseQueue` of the queue the session is already bound to keeps that
    /// session: the queue counts one session, not a second one opened on
    /// top of it.
    #[test]
    fn use_queue_of_the_bound_queue_keeps_the_session() {
        let server = spawn_coarse_heap_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let use_default = Request::UseQueue {
            name: DEFAULT_QUEUE.to_string(),
        };
        assert_eq!(request_reply(&mut stream, &use_default), Response::Using);
        assert_eq!(
            request_reply(&mut stream, &Request::Insert { key: 4, value: 40 }),
            Response::Inserted
        );
        assert_eq!(
            request_reply(&mut stream, &Request::DeleteMin),
            Response::Entry { key: 4, value: 40 }
        );
        match request_reply(&mut stream, &Request::Stats) {
            Response::Stats(stats) => assert_eq!(stats.queues[0].sessions, 1),
            other => panic!("expected stats, got {other:?}"),
        }
        drop(stream);
        let stats = server.join();
        assert_eq!(stats.queues[0].sessions, 1);
        assert_eq!(stats.totals.inserts, 1);
    }

    /// A peer that dies mid-frame with its responses unread: the frames it
    /// completed are applied, the torn tail is discarded, and its session
    /// is released.
    #[test]
    fn a_peer_dying_mid_frame_with_responses_unread_releases_its_session() {
        let server = spawn_coarse_heap_server();
        let mut a = TcpStream::connect(server.local_addr()).unwrap();
        // One round trip proves A holds a session on the queue.
        assert_eq!(request_reply(&mut a, &Request::ApproxLen), Response::Len(0));
        let mut wire = Vec::new();
        for key in 0..32u64 {
            Request::Insert { key, value: key }.encode(&mut wire);
        }
        let whole_frames = wire.len();
        Request::Insert { key: 32, value: 32 }.encode(&mut wire);
        wire.truncate(whole_frames + 5);
        a.write_all(&wire).unwrap();
        drop(a);

        let deadline = Instant::now() + Duration::from_secs(10);
        while server.registry().stats()[0].sessions_live > 0 {
            assert!(
                Instant::now() < deadline,
                "peer A's session was never released"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // B starts bound to the default queue; a UseQueue is not needed.
        let mut b = TcpStream::connect(server.local_addr()).unwrap();
        let mut keys = Vec::new();
        loop {
            match request_reply(&mut b, &Request::DeleteMin) {
                Response::Entry { key, .. } => keys.push(key),
                Response::Empty => break,
                other => panic!("expected an entry or Empty, got {other:?}"),
            }
        }
        assert_eq!(keys, (0..32).collect::<Vec<u64>>());
        drop(b);
        let stats = server.join();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.totals.inserts, 32);
    }

    #[test]
    fn wire_shutdown_stops_the_server() {
        let server = spawn_server(ServerConfig::default());
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        Request::Shutdown.encode(&mut wire);
        stream.write_all(&wire).unwrap();
        let mut frame = Vec::new();
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        assert_eq!(Response::decode(&frame).unwrap().0, Response::ShuttingDown);
        assert!(server.is_shutting_down());
        // The ack's wake ends the accept loop before anyone joins it, and the
        // listener closes with it: a fresh connect is refused.
        let acked = Instant::now();
        let accept = server.accept_thread.as_ref().expect("not joined yet");
        while !accept.is_finished() {
            assert!(
                acked.elapsed() < Duration::from_secs(1),
                "the accept loop is still running 1 s after the ack"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            TcpStream::connect(addr).unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        server.join();
    }

    #[test]
    fn each_new_connection_gets_its_first_response_within_a_few_ms() {
        // The accept loop blocks in `accept`, so a connection that arrives
        // right after another one is served at once, not after a poll sleep.
        let server = spawn_server(ServerConfig::default());
        let mut round_trips: Vec<Duration> = (0..50)
            .map(|_| {
                let started = Instant::now();
                let mut stream = TcpStream::connect(server.local_addr()).unwrap();
                assert_eq!(
                    request_reply(&mut stream, &Request::ApproxLen),
                    Response::Len(0)
                );
                started.elapsed()
            })
            .collect();
        let total: Duration = round_trips.iter().sum();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(5),
            "median connect-to-response {median:?}"
        );
        assert!(
            total < Duration::from_millis(250),
            "50 connects took {total:?}"
        );
        server.join();
    }

    #[test]
    fn batch_requests_are_clamped_to_the_wire_limit() {
        // One lane, so the whole batch comes off one heap: exactly the
        // `MAX_BATCH` smallest keys, in order.
        let queue = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(1).with_seed(9));
        let held = u64::from(MAX_BATCH) + 16;
        let mut session = queue.register();
        for k in (0..held).rev() {
            session.insert(k, k);
        }
        drop(session);
        let server = PqServer::spawn(Arc::new(queue), "127.0.0.1:0", ServerConfig::default())
            .expect("bind ephemeral");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        match request_reply(&mut stream, &Request::DeleteMinBatch { max: u32::MAX }) {
            Response::Batch(entries) => {
                let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
                assert_eq!(keys, (0..u64::from(MAX_BATCH)).collect::<Vec<_>>());
            }
            other => panic!("expected a batch, got {other:?}"),
        }
        assert_eq!(
            request_reply(&mut stream, &Request::ApproxLen),
            Response::Len(16)
        );
    }

    #[test]
    fn stats_report_the_lane_count_over_the_wire() {
        let queue = Arc::new(MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(16)
                .with_shards(2)
                .with_seed(4),
        ));
        let erased: Arc<dyn DynSharedPq<u64>> = Arc::clone(&queue) as _;
        let server = PqServer::spawn(erased, "127.0.0.1:0", ServerConfig::default()).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        match request_reply(&mut stream, &Request::Stats) {
            Response::Stats(stats) => assert_eq!(stats.lanes, 16),
            other => panic!("expected stats, got {other:?}"),
        }
        drop(stream);
        let final_stats = server.join();
        assert_eq!(final_stats.lanes, 16);
    }

    /// The full queue lifecycle over raw sockets: create a named queue,
    /// rebind to it, operate, list, observe per-queue stats, drop it, and
    /// watch the tombstone refusal land on the still-bound session.
    #[test]
    fn named_queue_lifecycle_over_the_wire() {
        let server = spawn_server(ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Create a coarse-heap tenant queue with an in-flight quota of 2.
        let create = Request::CreateQueue {
            name: "tenant/a".to_string(),
            backend: BackendSpec::CoarseHeap,
            quota: QuotaSpec::unlimited().with_max_inflight(2),
        };
        assert_eq!(request_reply(&mut stream, &create), Response::QueueCreated);
        // Creating it again is a typed refusal.
        match request_reply(&mut stream, &create) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::QueueExists),
            other => panic!("expected QueueExists, got {other:?}"),
        }
        // Rebind and operate on the new queue.
        assert_eq!(
            request_reply(
                &mut stream,
                &Request::UseQueue {
                    name: "tenant/a".to_string()
                }
            ),
            Response::Using
        );
        for key in [3u64, 1] {
            assert_eq!(
                request_reply(&mut stream, &Request::Insert { key, value: key }),
                Response::Inserted
            );
        }
        // The third insert trips the in-flight quota.
        match request_reply(&mut stream, &Request::Insert { key: 9, value: 9 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::QuotaExceeded),
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // ApproxLen is now per-queue: the bound tenant queue holds 2.
        assert_eq!(
            request_reply(&mut stream, &Request::ApproxLen),
            Response::Len(2)
        );
        // The listing shows both queues with the tenant's refusal counted.
        match request_reply(&mut stream, &Request::ListQueues) {
            Response::QueueList(rows) => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].name, DEFAULT_QUEUE);
                assert_eq!(rows[1].name, "tenant/a");
                assert_eq!(rows[1].backend, "coarse-heap");
                assert!(rows[1].instantiated);
                assert_eq!(rows[1].approx_len, 2);
                assert_eq!(rows[1].refusals, 1);
            }
            other => panic!("expected a queue list, got {other:?}"),
        }
        // The Stats breakdown attributes the work to the right queue.
        match request_reply(&mut stream, &Request::Stats) {
            Response::Stats(stats) => {
                assert_eq!(stats.queues.len(), 2);
                assert_eq!(stats.queues[1].name, "tenant/a");
                assert_eq!(stats.queues[1].totals.inserts, 2);
                assert_eq!(stats.queues[1].totals.refusals, 1);
                assert_eq!(stats.queues[0].totals.inserts, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Coarse heap is exact: delete_min returns the smallest key.
        match request_reply(&mut stream, &Request::DeleteMin) {
            Response::Entry { key, .. } => assert_eq!(key, 1),
            other => panic!("expected an entry, got {other:?}"),
        }
        // Drop the queue from a *second* connection while the first is
        // still bound to it.
        let mut admin = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(
            request_reply(
                &mut admin,
                &Request::DropQueue {
                    name: "tenant/a".to_string()
                }
            ),
            Response::QueueDropped
        );
        // The still-bound session gets the tombstone, typed, on its next op.
        match request_reply(&mut stream, &Request::Insert { key: 7, value: 7 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::QueueDropped),
            other => panic!("expected QueueDropped, got {other:?}"),
        }
        // Rebinding to the dropped name is NoSuchQueue; the default queue
        // still works.
        match request_reply(
            &mut stream,
            &Request::UseQueue {
                name: "tenant/a".to_string(),
            },
        ) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSuchQueue),
            other => panic!("expected NoSuchQueue, got {other:?}"),
        }
        assert_eq!(
            request_reply(
                &mut stream,
                &Request::UseQueue {
                    name: DEFAULT_QUEUE.to_string()
                }
            ),
            Response::Using
        );
        assert_eq!(
            request_reply(&mut stream, &Request::ApproxLen),
            Response::Len(0)
        );
        drop(stream);
        drop(admin);
        // The dropped queue's history (2 inserts, 1 removal, 2 refusals)
        // survives in the retired roll-up of the final aggregate.
        let stats = server.join();
        assert_eq!(stats.totals.inserts, 2);
        assert_eq!(stats.totals.removals, 1);
        assert_eq!(stats.totals.refusals, 2);
        assert_eq!(stats.queues.len(), 1, "only the default queue remains");
    }

    /// A frame stamped v5 — otherwise a well-formed insert — gets exactly
    /// one `Protocol` error frame, and then the connection closes: the
    /// pipelined frame behind it is never answered and nothing is counted.
    #[test]
    fn a_v5_frame_gets_one_protocol_error_then_a_close() {
        let server = spawn_server(ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut wire = Vec::new();
        Request::Insert { key: 5, value: 50 }.encode(&mut wire);
        wire[4] = 5;
        Request::ApproxLen.encode(&mut wire);
        stream.write_all(&wire).unwrap();
        let mut frame = Vec::new();
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        // `Response::decode` accepts nothing but the current stamp.
        match Response::decode(&frame).unwrap().0 {
            Response::Error { code, detail } => {
                assert_eq!(code, ErrorCode::Protocol);
                assert_eq!(detail, WireError::UnknownVersion(5).to_string());
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(
            !read_frame_bytes(&mut stream, &mut frame).unwrap(),
            "the connection closes after the one error frame"
        );
        drop(stream);
        let stats = server.join();
        assert_eq!(stats.totals.operations(), 0);
    }

    /// A registry-first server without a default queue: sessions start
    /// unbound, session ops are refused typed, and UseQueue brings the
    /// connection live.
    #[test]
    fn registry_server_without_a_default_queue_requires_use_queue() {
        let registry = Arc::new(QueueRegistry::default());
        registry
            .create(
                "only",
                BackendSpec::default_multiqueue(),
                QuotaSpec::unlimited(),
            )
            .unwrap();
        let server =
            PqServer::spawn_registry(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        match request_reply(&mut stream, &Request::Insert { key: 1, value: 1 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSuchQueue),
            other => panic!("expected NoSuchQueue, got {other:?}"),
        }
        assert_eq!(
            request_reply(
                &mut stream,
                &Request::UseQueue {
                    name: "only".to_string()
                }
            ),
            Response::Using
        );
        assert_eq!(
            request_reply(&mut stream, &Request::Insert { key: 1, value: 1 }),
            Response::Inserted
        );
        drop(stream);
        let stats = server.join();
        assert_eq!(stats.totals.inserts, 1);
        // The unbound refusal is counted in service totals but belongs to
        // no queue row.
        assert_eq!(stats.totals.refusals, 1);
        assert_eq!(stats.queues[0].totals.refusals, 0);
    }

    /// Sessions opening and closing *while* Stats aggregations run: the
    /// aggregate must never panic, never lose a closed session's counters,
    /// and the final join must account every insert exactly.
    #[test]
    fn stats_aggregation_is_stable_while_sessions_close_mid_aggregation() {
        let server = spawn_server(ServerConfig::default());
        let addr = server.local_addr();
        let churn_threads = 4;
        let conns_per_thread = 8;
        let inserts_per_conn = 25u64;
        std::thread::scope(|scope| {
            for t in 0..churn_threads {
                scope.spawn(move || {
                    for c in 0..conns_per_thread {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        let mut wire = Vec::new();
                        for i in 0..inserts_per_conn {
                            Request::Insert {
                                key: (t * 1_000 + c * 100) as u64 + i,
                                value: 0,
                            }
                            .encode(&mut wire);
                        }
                        stream.write_all(&wire).unwrap();
                        let mut frame = Vec::new();
                        for _ in 0..inserts_per_conn {
                            assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
                        }
                        // Closing here races the aggregator below: the
                        // session's counters must survive into the queue's
                        // closed roll-up.
                        drop(stream);
                    }
                });
            }
            // The aggregator: hammer Stats from its own connection while the
            // churn threads open and close sessions. Totals must be
            // monotonically non-decreasing (closing sessions merge into the
            // roll-up under one lock, merge saturates, counters only grow).
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut last_inserts = 0u64;
                let mut frame = Vec::new();
                for _ in 0..50 {
                    let mut wire = Vec::new();
                    Request::Stats.encode(&mut wire);
                    stream.write_all(&wire).unwrap();
                    assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
                    match Response::decode(&frame).unwrap().0 {
                        Response::Stats(stats) => {
                            assert!(
                                stats.totals.inserts >= last_inserts,
                                "aggregate went backwards: {} < {last_inserts}",
                                stats.totals.inserts
                            );
                            last_inserts = stats.totals.inserts;
                        }
                        other => panic!("expected stats, got {other:?}"),
                    }
                }
            });
        });
        let stats = server.join();
        let expected = churn_threads as u64 * conns_per_thread as u64 * inserts_per_conn;
        assert_eq!(
            stats.totals.inserts, expected,
            "closed sessions keep counting in the final aggregate"
        );
        // The aggregator connection plus every churn connection.
        assert_eq!(
            stats.sessions,
            (churn_threads * conns_per_thread) as u64 + 1
        );
    }

    #[test]
    fn join_completes_despite_live_connections() {
        // An open connection that never sends (or never reads) must not
        // stall join: shutdown closes the live sockets, so handlers stuck
        // in reads *or* writes exit promptly.
        let server = spawn_server(ServerConfig::default());
        let _idle = TcpStream::connect(server.local_addr()).unwrap();
        let started = std::time::Instant::now();
        server.join();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "join must not wait on the idle connection"
        );
    }

    /// The exposition endpoint over the wire: session traffic shows up as
    /// registry metrics, and `include_events` appends the flight recorder as
    /// comment lines (still line-scrapeable).
    #[test]
    fn metrics_dump_over_the_wire_exposes_counters_and_events() {
        let server = spawn_server(ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(
            request_reply(&mut stream, &Request::Insert { key: 3, value: 30 }),
            Response::Inserted
        );
        match request_reply(
            &mut stream,
            &Request::MetricsDump {
                include_events: false,
            },
        ) {
            Response::MetricsText(text) => {
                assert!(
                    text.contains("registry_inflight"),
                    "admitted insert reaches the registry gauge:\n{text}"
                );
                assert!(
                    !text.contains("# flight recorder"),
                    "events only ride along on request:\n{text}"
                );
            }
            other => panic!("expected metrics text, got {other:?}"),
        }
        match request_reply(
            &mut stream,
            &Request::MetricsDump {
                include_events: true,
            },
        ) {
            Response::MetricsText(text) => {
                assert!(text.contains("# flight recorder"), "events ride along");
                assert!(
                    text.contains("session-open"),
                    "this very connection's open event is in the ring:\n{text}"
                );
                for line in text.lines() {
                    assert!(
                        line.is_empty()
                            || line.starts_with('#')
                            || line.split_whitespace().count() == 2,
                        "exposition stays scrapeable, offending line: {line}"
                    );
                }
            }
            other => panic!("expected metrics text, got {other:?}"),
        }
    }

    /// The end-to-end trace path over a raw socket: a request carrying a
    /// trace id gets the id echoed back with a server stage time, and the
    /// next metrics dump carries build info, uptime, the per-stage
    /// histograms, and the span itself.
    #[test]
    fn traced_requests_land_in_stage_histograms_and_the_span_ring() {
        use crate::protocol::TraceContext;
        let server = spawn_server(ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let trace = TraceContext {
            trace_id: 0xABCD_EF01_2345_6789,
        };
        let mut wire = Vec::new();
        Request::Insert { key: 4, value: 40 }.encode_traced(&mut wire, Some(trace));
        stream.write_all(&wire).unwrap();
        let mut frame = Vec::new();
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        let (response, echo, _) = Response::decode_traced(&frame).unwrap();
        assert_eq!(response, Response::Inserted);
        let echo = echo.expect("a traced request is answered traced");
        assert_eq!(echo.trace_id, trace.trace_id);
        assert!(echo.server_ns > 0, "decode+admit+queue-op took time");

        match request_reply(
            &mut stream,
            &Request::MetricsDump {
                include_events: true,
            },
        ) {
            Response::MetricsText(text) => {
                assert!(
                    text.contains("build_info{"),
                    "build_info gauge is exported:\n{text}"
                );
                assert!(
                    text.contains("uptime_seconds"),
                    "uptime gauge is exported:\n{text}"
                );
                for stage in SpanStage::ALL {
                    assert!(
                        text.contains(&format!("stage=\"{}\"", stage.name())),
                        "per-stage histogram for {} is exported:\n{text}",
                        stage.name()
                    );
                }
                assert!(
                    text.contains("# request spans"),
                    "span section rides along with events:\n{text}"
                );
                assert!(
                    text.contains("trace=0xabcdef0123456789"),
                    "the sampled request's span is retained:\n{text}"
                );
            }
            other => panic!("expected metrics text, got {other:?}"),
        }

        // Untraced requests on the same connection stay untraced.
        let mut wire = Vec::new();
        Request::DeleteMin.encode(&mut wire);
        stream.write_all(&wire).unwrap();
        assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
        let (response, echo, _) = Response::decode_traced(&frame).unwrap();
        assert_eq!(response, Response::Entry { key: 4, value: 40 });
        assert!(echo.is_none(), "no trace was requested");
    }

    /// A registry at its `MAX_QUEUES` ceiling, with the longest names,
    /// still answers `ListQueues` and `Stats` in one frame each, and refuses
    /// one more `CreateQueue`.
    #[test]
    fn a_full_registry_lists_and_reports_every_queue_in_one_frame() {
        let registry = Arc::new(QueueRegistry::default());
        let names: Vec<String> = (0..choice_registry::MAX_QUEUES)
            .map(|i| format!("{i:0>64}"))
            .collect();
        for name in &names {
            registry
                .create(name, BackendSpec::CoarseHeap, QuotaSpec::unlimited())
                .unwrap();
        }
        let server =
            PqServer::spawn_registry(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut frame = Vec::new();
        for request in [Request::ListQueues, Request::Stats] {
            let mut wire = Vec::new();
            request.encode(&mut wire);
            stream.write_all(&wire).unwrap();
            assert!(read_frame_bytes(&mut stream, &mut frame).unwrap());
            assert!(
                frame.len() < 160_000,
                "{request:?} reply takes {} bytes",
                frame.len()
            );
            let rows: Vec<String> = match Response::decode(&frame).unwrap().0 {
                Response::QueueList(rows) => rows.into_iter().map(|r| r.name).collect(),
                Response::Stats(stats) => stats.queues.into_iter().map(|q| q.name).collect(),
                other => panic!("expected a queue list or stats, got {other:?}"),
            };
            assert_eq!(rows, names, "{request:?} carries every queue in order");
        }
        let one_more = Request::CreateQueue {
            name: "one-more".to_string(),
            backend: BackendSpec::CoarseHeap,
            quota: QuotaSpec::unlimited(),
        };
        match request_reply(&mut stream, &one_more) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::RegistryFull),
            other => panic!("expected RegistryFull, got {other:?}"),
        }
        drop(stream);
        server.join();
    }

    /// The key whose insert [`TrapQueue`] turns into a panic.
    const TRAP_KEY: Key = 77;

    /// A MultiQueue backend whose `insert` panics on [`TRAP_KEY`]: a handler
    /// panic raised inside a queue operation.
    struct TrapQueue(MultiQueue<u64>);

    struct TrapHandle<'q>(choice_pq::MqHandle<'q, u64>);

    impl PqHandle<u64> for TrapHandle<'_> {
        fn insert(&mut self, key: Key, value: u64) {
            if key == TRAP_KEY {
                panic!("fault injection: insert of key {key} trips the trap backend");
            }
            self.0.insert(key, value);
        }

        fn delete_min(&mut self) -> Option<(Key, u64)> {
            self.0.delete_min()
        }

        fn stats(&self) -> choice_pq::HandleStats {
            self.0.stats()
        }
    }

    impl SharedPq<u64> for TrapQueue {
        type Handle<'q> = TrapHandle<'q>;

        fn register(&self) -> TrapHandle<'_> {
            TrapHandle(self.0.register())
        }

        fn approx_len(&self) -> usize {
            self.0.approx_len()
        }

        fn name(&self) -> String {
            "trap".to_string()
        }
    }

    /// The panic-recovery path: a panicking op dumps the flight recorder,
    /// kills only its own connection, and the server keeps serving other
    /// sessions.
    #[test]
    fn panicking_op_dumps_the_flight_recorder_and_the_server_survives() {
        let queue = TrapQueue(MultiQueue::new(
            MultiQueueConfig::with_queues(4).with_seed(9),
        ));
        let server = PqServer::spawn(Arc::new(queue), "127.0.0.1:0", ServerConfig::default())
            .expect("bind ephemeral");
        let mut victim = TcpStream::connect(server.local_addr()).unwrap();
        // A normal op first, so the session is demonstrably live.
        assert_eq!(
            request_reply(&mut victim, &Request::Insert { key: 1, value: 1 }),
            Response::Inserted
        );
        // Trip the trap: the handler panics, the hook dumps, the socket
        // closes (EOF or reset — either proves the handler released it).
        let mut wire = Vec::new();
        Request::Insert {
            key: TRAP_KEY,
            value: 0,
        }
        .encode(&mut wire);
        victim.write_all(&wire).unwrap();
        let mut frame = Vec::new();
        // An `Err` (connection reset) equally proves the handler released
        // the socket.
        if let Ok(more) = read_frame_bytes(&mut victim, &mut frame) {
            assert!(!more, "no response frame follows a panicked op");
        }
        // The panic hook captured a dump naming the panic and this session.
        let dump = choice_obs::take_last_panic_dump().expect("panic dump captured");
        assert!(
            dump.contains("panic"),
            "dump records the panic event:\n{dump}"
        );
        assert!(
            dump.contains("fault injection"),
            "panic message rides in the event label:\n{dump}"
        );
        assert!(
            dump.contains("session-open"),
            "the session's own open event precedes the panic:\n{dump}"
        );
        // Other sessions are unaffected: a fresh connection still serves,
        // and the inserted key from before the panic is still in the queue.
        let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(
            request_reply(&mut fresh, &Request::DeleteMin),
            Response::Entry { key: 1, value: 1 }
        );
        drop(fresh);
        drop(victim);
        server.join();
    }

    #[test]
    fn config_builders_validate() {
        let c = ServerConfig::default().with_credit_window(7);
        assert_eq!(c.credit_window, 7);
        assert!(
            std::panic::catch_unwind(|| ServerConfig::default().with_credit_window(0)).is_err()
        );
    }
}
