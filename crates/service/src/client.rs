//! The blocking, pipelined choice-wire client.
//!
//! A [`PqClient`] is a single-threaded session over one TCP connection —
//! the remote mirror of a [`PqHandle`](choice_pq::PqHandle): all methods
//! take `&mut self`, and one client maps to one server-side session (one
//! deterministic RNG stream, one stats slot). Use one client per worker
//! thread, exactly as you would register one handle per worker.
//!
//! # Pipelining and the credit window
//!
//! The synchronous methods ([`insert`](PqClient::insert),
//! [`delete_min`](PqClient::delete_min), …) are one round trip each. For
//! throughput, [`submit`](PqClient::submit) *pipelines*: it writes the
//! request into the send buffer and returns without waiting — unless the
//! credit window (the maximum number of unanswered requests) is full, in
//! which case it first reads exactly one response, returning it with its
//! measured round-trip time. [`drain_one`](PqClient::drain_one) /
//! [`drain_all`](PqClient::drain_all) collect the remainder. The window
//! bounds both sides' buffering (the server mirrors it — see
//! [`server`](crate::server) module docs) and is what makes a blocking
//! client safe to pipeline: client and server can never both be blocked on
//! writes with more than a window of frames in the air.
//!
//! Responses arrive strictly in request order (the server executes each
//! connection serially), so a FIFO queue of send timestamps is enough to
//! attribute round-trip times.
//!
//! # Request tracing
//!
//! With tracing enabled ([`set_trace_every`](PqClient::set_trace_every)),
//! every N-th request carries a trace id. The server echoes the id back
//! together with its measured handling time (decode + admit + queue-op),
//! which lets the client split the observed round trip into "server work"
//! versus "everything else" (client buffering, the wire, kernel queues,
//! server recv/flush) — see [`TraceSplit`]. The most recent split and the
//! running totals are available from
//! [`last_trace_split`](PqClient::last_trace_split) and
//! [`trace_totals`](PqClient::trace_totals).

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use choice_pq::Key;
use choice_registry::{BackendSpec, QuotaSpec};

use crate::protocol::{
    read_frame_bytes, ErrorCode, QueueListRow, Request, Response, ServiceStats, TraceContext,
    WireError,
};

/// Process-wide trace-id allocator: ids stay unique across every client in
/// the process, so spans from different connections never collide in the
/// server's span ring.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// One traced request's round trip, split by the server's echoed stage time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSplit {
    /// The id the request carried (echoed back by the server).
    pub trace_id: u64,
    /// Full round trip: request buffered to response decoded.
    pub rtt: Duration,
    /// Server-side handling time (decode + admit + queue-op stages) in
    /// nanoseconds, measured on the server's clock.
    pub server_ns: u64,
}

impl TraceSplit {
    /// Nanoseconds of the round trip spent *outside* the server's handling
    /// stages: client-side buffering, the wire, kernel queues, and the
    /// server's recv/flush ends (saturating — the two clocks are
    /// independent).
    pub fn client_queue_ns(&self) -> u64 {
        (self.rtt.as_nanos() as u64).saturating_sub(self.server_ns)
    }
}

/// Running totals over every traced response this client has collected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Traced responses collected.
    pub traced: u64,
    /// Sum of traced round trips (ns).
    pub rtt_ns: u64,
    /// Sum of echoed server handling times (ns).
    pub server_ns: u64,
}

impl TraceTotals {
    /// Total nanoseconds traced requests spent outside the server's
    /// handling stages (saturating).
    pub fn client_queue_ns(&self) -> u64 {
        self.rtt_ns.saturating_sub(self.server_ns)
    }
}

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed at the transport level.
    Io(io::Error),
    /// The server's bytes did not decode as a response frame.
    Wire(WireError),
    /// The server answered with an error frame.
    Remote {
        /// Machine-readable refusal reason.
        code: ErrorCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The server answered with a frame type that does not match the
    /// request (a protocol bug on one side or the other).
    Unexpected(Response),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Remote { code, detail } => {
                write!(f, "server refused ({code:?}): {detail}")
            }
            ClientError::Unexpected(r) => write!(f, "response/request mismatch: {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A pipelined response paired with its measured round-trip latency (from
/// the moment the request was buffered to the moment its response frame
/// was decoded).
pub type TimedResponse = (Response, Duration);

/// A blocking client session over one choice-wire connection.
pub struct PqClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    window: usize,
    /// Send timestamps of requests whose responses are still outstanding
    /// (FIFO: responses come back in request order), with the trace id the
    /// request carried when it was sampled.
    inflight: VecDeque<(Instant, Option<u64>)>,
    frame: Vec<u8>,
    scratch: Vec<u8>,
    /// Trace every N-th request; `0` disables tracing.
    trace_every: u32,
    /// Requests sent since the last traced one.
    trace_tick: u32,
    last_split: Option<TraceSplit>,
    totals: TraceTotals,
}

impl PqClient {
    /// Default pipelining window (matches the server's default response
    /// credit window).
    pub const DEFAULT_WINDOW: usize = 64;

    /// Default 1-in-N tracing stride once tracing is enabled — same budget
    /// reasoning as the handle-level latency sampler.
    pub const DEFAULT_TRACE_EVERY: u32 = 64;

    /// Connects with the default window.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PqClient> {
        Self::connect_with_window(addr, Self::DEFAULT_WINDOW)
    }

    /// Connects with an explicit credit window (`1` disables pipelining).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn connect_with_window(addr: impl ToSocketAddrs, window: usize) -> io::Result<PqClient> {
        assert!(window > 0, "credit window must be positive");
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(PqClient {
            reader,
            writer,
            window,
            inflight: VecDeque::with_capacity(window),
            frame: Vec::new(),
            scratch: Vec::new(),
            trace_every: 0,
            trace_tick: 0,
            last_split: None,
            totals: TraceTotals::default(),
        })
    }

    /// The configured pipelining window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests currently in flight (sent, response not yet read).
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Traces every `every`-th request from now on (`0` disables tracing,
    /// `1` traces everything). See [`PqClient::DEFAULT_TRACE_EVERY`] for
    /// the recommended stride.
    pub fn set_trace_every(&mut self, every: u32) {
        self.trace_every = every;
        self.trace_tick = 0;
    }

    /// The round-trip split of the most recently collected traced response.
    pub fn last_trace_split(&self) -> Option<TraceSplit> {
        self.last_split
    }

    /// Running totals over every traced response collected so far.
    pub fn trace_totals(&self) -> TraceTotals {
        self.totals
    }

    /// Decides whether the next request is sampled, allocating its id.
    fn next_trace(&mut self) -> Option<TraceContext> {
        if self.trace_every == 0 {
            return None;
        }
        self.trace_tick += 1;
        if self.trace_tick < self.trace_every {
            return None;
        }
        self.trace_tick = 0;
        Some(TraceContext {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Encodes `request` (with a trace id when sampled) into the send
    /// buffer and enqueues its in-flight slot.
    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let trace = self.next_trace();
        self.scratch.clear();
        request.encode_traced(&mut self.scratch, trace);
        self.writer.write_all(&self.scratch)?;
        self.inflight
            .push_back((Instant::now(), trace.map(|t| t.trace_id)));
        Ok(())
    }

    /// Pipelines one request. Returns `Ok(None)` when the window had room
    /// (the request is buffered/sent, nothing was read); returns
    /// `Ok(Some(timed_response))` when the window was full and one response
    /// had to be collected first — that response belongs to the *oldest*
    /// outstanding request.
    pub fn submit(&mut self, request: &Request) -> Result<Option<TimedResponse>, ClientError> {
        let collected = if self.inflight.len() >= self.window {
            Some(self.drain_one()?)
        } else {
            None
        };
        self.send(request)?;
        Ok(collected)
    }

    /// Reads the response to the oldest in-flight request, flushing the
    /// send buffer first.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight.
    pub fn drain_one(&mut self) -> Result<TimedResponse, ClientError> {
        let (sent_at, _trace_id) = self
            .inflight
            .pop_front()
            .expect("drain_one with nothing in flight");
        self.writer.flush()?;
        if !read_frame_bytes(&mut self.reader, &mut self.frame)? {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection with requests in flight",
            )));
        }
        let (response, echo, _used) = Response::decode_traced(&self.frame)?;
        let rtt = sent_at.elapsed();
        if let Some(echo) = echo {
            let split = TraceSplit {
                trace_id: echo.trace_id,
                rtt,
                server_ns: echo.server_ns,
            };
            self.totals.traced += 1;
            self.totals.rtt_ns += rtt.as_nanos() as u64;
            self.totals.server_ns += echo.server_ns;
            self.last_split = Some(split);
        }
        Ok((response, rtt))
    }

    /// Drains every outstanding response, invoking `visit` on each in
    /// request order.
    pub fn drain_all(&mut self, mut visit: impl FnMut(TimedResponse)) -> Result<(), ClientError> {
        while !self.inflight.is_empty() {
            visit(self.drain_one()?);
        }
        Ok(())
    }

    /// One synchronous round trip: drain the pipeline, send, await the
    /// response.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.drain_all(|_| {})?;
        self.send(request)?;
        Ok(self.drain_one()?.0)
    }

    /// Turns an error response into [`ClientError::Remote`].
    fn ok_or_remote(response: Response) -> Result<Response, ClientError> {
        match response {
            Response::Error { code, detail } => Err(ClientError::Remote { code, detail }),
            other => Ok(other),
        }
    }

    /// Inserts one entry (one round trip).
    pub fn insert(&mut self, key: Key, value: u64) -> Result<(), ClientError> {
        match Self::ok_or_remote(self.call(&Request::Insert { key, value })?)? {
            Response::Inserted => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Removes one small-keyed entry (one round trip); `None` when the
    /// structure was observed empty.
    pub fn delete_min(&mut self) -> Result<Option<(Key, u64)>, ClientError> {
        match Self::ok_or_remote(self.call(&Request::DeleteMin)?)? {
            Response::Entry { key, value } => Ok(Some((key, value))),
            Response::Empty => Ok(None),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Removes up to `max` entries in one batched round trip (the server
    /// may clamp `max`).
    pub fn delete_min_batch(&mut self, max: u32) -> Result<Vec<(Key, u64)>, ClientError> {
        match Self::ok_or_remote(self.call(&Request::DeleteMinBatch { max })?)? {
            Response::Batch(entries) => Ok(entries),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Reads the server queue's approximate length.
    pub fn approx_len(&mut self) -> Result<u64, ClientError> {
        match Self::ok_or_remote(self.call(&Request::ApproxLen)?)? {
            Response::Len(len) => Ok(len),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Reads the server's aggregated per-session statistics.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match Self::ok_or_remote(self.call(&Request::Stats)?)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Reads the server's metrics exposition text (one round trip):
    /// Prometheus-style metric lines, plus the flight-recorder events as
    /// comment lines when `include_events` is set.
    pub fn metrics_dump(&mut self, include_events: bool) -> Result<String, ClientError> {
        match Self::ok_or_remote(self.call(&Request::MetricsDump { include_events })?)? {
            Response::MetricsText(text) => Ok(text),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Asks the server to shut down and waits for the acknowledgement.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match Self::ok_or_remote(self.call(&Request::Shutdown)?)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Registers a named queue on the server (one round trip). The backend
    /// is built lazily server-side on first use.
    pub fn create_queue(
        &mut self,
        name: &str,
        backend: BackendSpec,
        quota: QuotaSpec,
    ) -> Result<(), ClientError> {
        let request = Request::CreateQueue {
            name: name.to_string(),
            backend,
            quota,
        };
        match Self::ok_or_remote(self.call(&request)?)? {
            Response::QueueCreated => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Drops a named queue (one round trip); sessions still bound to it get
    /// typed `QueueDropped` refusals from then on.
    pub fn drop_queue(&mut self, name: &str) -> Result<(), ClientError> {
        let request = Request::DropQueue {
            name: name.to_string(),
        };
        match Self::ok_or_remote(self.call(&request)?)? {
            Response::QueueDropped => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Lists every queue on the server, sorted by name (one round trip).
    pub fn list_queues(&mut self) -> Result<Vec<QueueListRow>, ClientError> {
        match Self::ok_or_remote(self.call(&Request::ListQueues)?)? {
            Response::QueueList(rows) => Ok(rows),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Rebinds this connection's session to the named queue (one round
    /// trip). The old session's counters roll up into its queue; subsequent
    /// operations run against the new one. On a refusal the old binding is
    /// kept. Naming the queue the session is already bound to (and that was
    /// not dropped since) keeps the current session instead of opening a
    /// second one.
    pub fn use_queue(&mut self, name: &str) -> Result<(), ClientError> {
        let request = Request::UseQueue {
            name: name.to_string(),
        };
        match Self::ok_or_remote(self.call(&request)?)? {
            Response::Using => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}

impl fmt::Debug for PqClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PqClient")
            .field("window", &self.window)
            .field("in_flight", &self.inflight.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PqServer, ServerConfig};
    use choice_pq::{DynSharedPq, MultiQueue, MultiQueueConfig};
    use std::sync::Arc;

    fn server() -> PqServer {
        let queue: Arc<dyn DynSharedPq<u64>> = Arc::new(MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(4).with_seed(3),
        ));
        PqServer::spawn(queue, "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    #[test]
    fn synchronous_operations_round_trip() {
        let server = server();
        let mut client = PqClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.approx_len().unwrap(), 0);
        client.insert(3, 30).unwrap();
        client.insert(1, 10).unwrap();
        assert_eq!(client.approx_len().unwrap(), 2);
        let (k1, _) = client.delete_min().unwrap().unwrap();
        let (k2, _) = client.delete_min().unwrap().unwrap();
        let mut keys = [k1, k2];
        keys.sort_unstable();
        assert_eq!(keys, [1, 3]);
        assert_eq!(client.delete_min().unwrap(), None);
        let stats = client.stats().unwrap();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.totals.inserts, 2);
    }

    #[test]
    fn pipelined_submissions_respect_the_window_and_order() {
        let server = server();
        let mut client = PqClient::connect_with_window(server.local_addr(), 4).unwrap();
        let mut collected: Vec<TimedResponse> = Vec::new();
        for k in 0..10u64 {
            if let Some(timed) = client
                .submit(&Request::Insert { key: k, value: k })
                .unwrap()
            {
                collected.push(timed);
            }
            assert!(client.in_flight() <= client.window());
        }
        // 10 submissions through a window of 4: 6 were collected en route.
        assert_eq!(collected.len(), 6);
        client.drain_all(|timed| collected.push(timed)).unwrap();
        assert_eq!(collected.len(), 10);
        assert!(collected
            .iter()
            .all(|(r, rtt)| *r == Response::Inserted && *rtt > Duration::ZERO));
        assert_eq!(client.approx_len().unwrap(), 10);
        // Batched removal gets everything back.
        let entries = client.delete_min_batch(64).unwrap();
        let mut keys: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
        let mut rounds = 0;
        while keys.len() < 10 && rounds < 32 {
            keys.extend(client.delete_min_batch(64).unwrap().iter().map(|(k, _)| *k));
            rounds += 1;
        }
        keys.sort_unstable();
        assert_eq!(keys, (0..10u64).collect::<Vec<_>>());
    }

    #[test]
    fn traced_requests_split_the_round_trip() {
        let server = server();
        let mut client = PqClient::connect(server.local_addr()).unwrap();
        assert!(client.last_trace_split().is_none(), "tracing starts off");
        client.insert(7, 70).unwrap();
        assert_eq!(client.trace_totals(), TraceTotals::default());

        client.set_trace_every(1);
        client.insert(8, 80).unwrap();
        let split = client
            .last_trace_split()
            .expect("stride 1 traces every request");
        assert!(split.server_ns > 0, "server measured its stages");
        assert!(
            split.rtt.as_nanos() as u64 >= split.server_ns,
            "the round trip contains the server's handling time: \
             rtt={:?} server_ns={}",
            split.rtt,
            split.server_ns
        );
        assert_eq!(
            split.client_queue_ns(),
            split.rtt.as_nanos() as u64 - split.server_ns
        );

        // A coarser stride samples exactly 1-in-N, and the totals advance
        // only on traced responses.
        client.set_trace_every(4);
        let before = client.trace_totals();
        for k in 0..8u64 {
            client.insert(k, k).unwrap();
        }
        let after = client.trace_totals();
        assert_eq!(after.traced, before.traced + 2, "8 requests at stride 4");
        assert!(after.server_ns > before.server_ns);
        assert!(after.rtt_ns >= after.server_ns);
    }

    #[test]
    fn remote_refusals_surface_as_typed_errors() {
        let server = server();
        let mut client = PqClient::connect(server.local_addr()).unwrap();
        match client.insert(Key::MAX, 0) {
            Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ReservedKey),
            other => panic!("expected a remote refusal, got {other:?}"),
        }
        // The session is still usable afterwards.
        client.insert(1, 1).unwrap();
        assert_eq!(client.delete_min().unwrap(), Some((1, 1)));
    }

    #[test]
    fn queue_lifecycle_round_trips_through_the_client() {
        let server = server();
        let mut client = PqClient::connect(server.local_addr()).unwrap();
        client
            .create_queue(
                "tenant/a",
                BackendSpec::MultiQueue { lanes: 4, d: 2 },
                QuotaSpec::unlimited().with_max_inflight(1),
            )
            .unwrap();
        client.use_queue("tenant/a").unwrap();
        client.insert(1, 10).unwrap();
        // The in-flight quota surfaces as a typed remote error.
        match client.insert(2, 20) {
            Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QuotaExceeded),
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        let rows = client.list_queues().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].name, "tenant/a");
        assert_eq!(rows[1].refusals, 1);
        client.drop_queue("tenant/a").unwrap();
        match client.use_queue("tenant/a") {
            Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::NoSuchQueue),
            other => panic!("expected NoSuchQueue, got {other:?}"),
        }
        // Recover by rebinding to the default queue.
        client.use_queue("default").unwrap();
        client.insert(9, 90).unwrap();
        assert_eq!(client.delete_min().unwrap(), Some((9, 90)));
    }

    #[test]
    fn shutdown_round_trips_and_ends_the_service() {
        let server = server();
        let mut client = PqClient::connect(server.local_addr()).unwrap();
        client.insert(5, 5).unwrap();
        client.shutdown_server().unwrap();
        assert!(server.is_shutting_down());
        let stats = server.join();
        assert_eq!(stats.totals.inserts, 1);
    }
}
