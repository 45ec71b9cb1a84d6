//! The choice-wire protocol: length-prefixed binary frames.
//!
//! Every frame — in both directions — starts with the same 7-byte header:
//!
//! ```text
//! [ length: u32 LE ][ version: u8 = 7 ][ opcode: u8 ][ trace flags: u8 ][ trace fields ][ payload ... ]
//! ```
//!
//! `length` counts everything after the length field itself, so a reader
//! can always consume exactly one frame knowing only the first four bytes.
//! The version byte rides in every frame rather than a one-shot handshake:
//! it keeps the protocol stateless per frame and costs one byte. It is
//! always [`WIRE_VERSION`]; a frame stamped with any other version decodes
//! as [`WireError::UnknownVersion`], whatever follows the stamp. The trace
//! flags byte is always present: `0` on an untraced frame,
//! [`TRACE_FLAG_SAMPLED`] when trace fields follow it (a request's
//! [`TraceContext`], a response's [`TraceEcho`]).
//!
//! Integers are little-endian throughout. Payloads are fixed-layout —
//! nothing is self-describing — which keeps encode/decode branch-free and
//! the frames small: an untraced `Insert` is 23 bytes on the wire, a
//! `DeleteMin` 7. Queue names ride as a one-byte length followed by 1..=64
//! bytes of UTF-8.
//!
//! Decoding is *total*: any byte sequence produces either a frame or a
//! [`WireError`], never a panic (property-tested, including truncations and
//! garbage). Truncation is reported as [`WireError::Truncated`] so stream
//! readers can distinguish "wait for more bytes" from "the peer sent
//! nonsense" ([`WireError::is_incomplete`]).
//!
//! The payload value type is fixed to `u64` pairs (`key`, `value`): the
//! service is a *priority-queue* service, and an opaque 8-byte value is
//! enough to carry an id into whatever store holds the real payload —
//! exactly how the in-process queues are used by the SSSP and scheduler
//! layers.

use std::fmt;
use std::io::{self, Read, Write};

use choice_pq::{HandleStats, Key};
use choice_registry::{BackendSpec, QuotaSpec, MAX_NAME_LEN, MAX_QUEUES};

/// The protocol version every frame carries, and the only one this build
/// decodes. Fixed layouts are not self-describing, so any layout change is
/// a version bump; versions 1–6 were earlier layouts.
pub const WIRE_VERSION: u8 = 7;

/// Hard ceiling on `length` (header bytes after the length prefix, trace
/// fields and payload). Large enough for a [`MAX_BATCH`]-entry batch
/// response and for a Stats or ListQueues reply carrying [`MAX_QUEUES`]
/// per-queue rows, small enough that a malicious length prefix cannot make
/// either side allocate unboundedly.
pub const MAX_FRAME_LEN: u32 = 256 * 1024;

/// Largest `DeleteMinBatch` size the protocol will carry in one frame.
/// Servers clamp larger requests to their own (possibly smaller) limit.
pub const MAX_BATCH: u32 = 4096;

/// Trace flag: the frame carries trace fields (request: `trace_id u64`;
/// response: `trace_id u64` + `server_ns u64`). All other flag bits are
/// unassigned and decode as [`WireError::MalformedPayload`], so a peer
/// never silently skips fields it does not understand.
pub const TRACE_FLAG_SAMPLED: u8 = 0x01;

/// Header bytes after the length prefix: version, opcode, trace flags.
const HEADER_LEN: usize = 3;

/// Largest payload an encoder writes: room for the header and the widest
/// trace fields (a response's 16 bytes) stays under [`MAX_FRAME_LEN`].
const MAX_PAYLOAD: usize = MAX_FRAME_LEN as usize - HEADER_LEN - 16;

/// The trace context a client stamps on a sampled request: an opaque
/// 8-byte id the server echoes back so the client can pair the response
/// (and its server-side timing) with the request it measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-chosen trace id (opaque to the server; echoed verbatim).
    pub trace_id: u64,
}

/// The trace echo a server stamps on the response to a sampled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEcho {
    /// The request's trace id, echoed verbatim.
    pub trace_id: u64,
    /// Wall time the server spent processing this request (decode + admit +
    /// queue-op, ns). The recv and flush stages land in the server's span
    /// ring but not on the wire: recv can include pipeline idle and flush
    /// happens after the response is encoded, so neither belongs in the
    /// number clients subtract from the measured RTT to split client-queue
    /// time from server time.
    pub server_ns: u64,
}

/// The trace fields a sampled frame carries right after its flags byte:
/// a [`TraceContext`] on requests, a [`TraceEcho`] on responses.
trait TraceFields: Copy {
    /// The header layout, reported by [`WireError::MalformedPayload`].
    const LAYOUT: &'static str;
    fn put(self, out: &mut Vec<u8>);
    fn take(p: &mut Payload<'_>) -> Result<Self, WireError>;
}

impl TraceFields for TraceContext {
    const LAYOUT: &'static str = "trace flags u8 (0 or 1) [+ trace_id u64]";

    fn put(self, out: &mut Vec<u8>) {
        put_u64(out, self.trace_id);
    }

    fn take(p: &mut Payload<'_>) -> Result<Self, WireError> {
        Ok(TraceContext {
            trace_id: p.take_u64()?,
        })
    }
}

impl TraceFields for TraceEcho {
    const LAYOUT: &'static str = "trace flags u8 (0 or 1) [+ trace_id u64 + server_ns u64]";

    fn put(self, out: &mut Vec<u8>) {
        put_u64(out, self.trace_id);
        put_u64(out, self.server_ns);
    }

    fn take(p: &mut Payload<'_>) -> Result<Self, WireError> {
        Ok(TraceEcho {
            trace_id: p.take_u64()?,
            server_ns: p.take_u64()?,
        })
    }
}

/// Everything that can go wrong turning bytes into frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends mid-frame; `needed` more bytes are required before
    /// decoding can be retried. On a stream this means "read more"; at
    /// end-of-stream it means the peer died mid-frame.
    Truncated {
        /// Additional bytes required to complete the frame.
        needed: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is too small to hold
    /// the version, opcode and trace-flags bytes).
    BadLength(u32),
    /// The version byte is not [`WIRE_VERSION`].
    UnknownVersion(u8),
    /// The opcode byte names no known frame type for the direction being
    /// decoded.
    UnknownOpcode(u8),
    /// The opcode was recognised but the trace fields or the payload do not
    /// have the exact layout that opcode requires.
    MalformedPayload {
        /// The offending opcode.
        opcode: u8,
        /// What the layout check expected.
        expected: &'static str,
    },
}

impl WireError {
    /// Whether this error means "the bytes so far are a valid prefix, keep
    /// reading" rather than "the peer sent garbage".
    pub fn is_incomplete(&self) -> bool {
        matches!(self, WireError::Truncated { .. })
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed } => {
                write!(f, "frame truncated: {needed} more byte(s) required")
            }
            WireError::BadLength(len) => write!(
                f,
                "frame length {len} outside the valid range {HEADER_LEN}..={MAX_FRAME_LEN}"
            ),
            WireError::UnknownVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::MalformedPayload { opcode, expected } => {
                write!(
                    f,
                    "malformed payload for opcode {opcode:#04x}: expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Client → server frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Insert one `(key, value)` entry into the session's bound queue.
    Insert {
        /// Priority key (smaller = more urgent). `Key::MAX` is reserved and
        /// answered with [`ErrorCode::ReservedKey`], never a panic.
        key: Key,
        /// Opaque 8-byte payload.
        value: u64,
    },
    /// Remove one small-keyed entry from the bound queue.
    DeleteMin,
    /// Remove up to `max` small-keyed entries in one batched operation.
    DeleteMinBatch {
        /// Requested batch size; the server clamps it to its own limit.
        max: u32,
    },
    /// Read the bound queue's (relaxed) element count.
    ApproxLen,
    /// Read the server's aggregated statistics, including the per-queue
    /// breakdown.
    Stats,
    /// Ask the server process to shut down (drains cleanly; the response is
    /// [`Response::ShuttingDown`]).
    Shutdown,
    /// Register a new named queue built from a declarative backend spec and
    /// a resource quota. Creation is lazy — the structure is built on first
    /// use.
    CreateQueue {
        /// Registry name, 1..=[`MAX_NAME_LEN`] bytes.
        name: String,
        /// Which backend to build and how to size it.
        backend: BackendSpec,
        /// The queue's resource budget.
        quota: QuotaSpec,
    },
    /// Drop a named queue. Sessions bound to it receive typed
    /// [`ErrorCode::QueueDropped`] refusals from then on.
    DropQueue {
        /// The queue to drop.
        name: String,
    },
    /// List every registered queue.
    ListQueues,
    /// Rebind this connection's session to the named queue. On success the
    /// old session ends (its counters roll up into its queue) and a fresh
    /// session opens on the target, unless the target is the live queue the
    /// session is already bound to: then the session is kept.
    UseQueue {
        /// The queue to bind.
        name: String,
    },
    /// Read the server's telemetry as a Prometheus-style text dump,
    /// answered with [`Response::MetricsText`]. Purely diagnostic: not
    /// charged against any quota and served whatever queue (if any) the
    /// session is bound to.
    MetricsDump {
        /// Whether to append the flight-recorder event tail (as
        /// `# `-prefixed comment lines) after the metric families.
        include_events: bool,
    },
}

/// Server → client frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The insert was published.
    Inserted,
    /// A `DeleteMin` produced this entry.
    Entry {
        /// The removed key.
        key: Key,
        /// The removed value.
        value: u64,
    },
    /// A `DeleteMin` observed the structure empty.
    Empty,
    /// A `DeleteMinBatch` produced these entries (possibly none).
    Batch(Vec<(Key, u64)>),
    /// The current approximate element count.
    Len(u64),
    /// Aggregated statistics over every session the server has served.
    Stats(ServiceStats),
    /// Acknowledges a [`Request::Shutdown`]; the connection closes after
    /// this frame.
    ShuttingDown,
    /// Acknowledges a [`Request::CreateQueue`].
    QueueCreated,
    /// Acknowledges a [`Request::DropQueue`].
    QueueDropped,
    /// Answers a [`Request::ListQueues`].
    QueueList(Vec<QueueListRow>),
    /// Acknowledges a [`Request::UseQueue`]; subsequent session operations
    /// run against the new queue.
    Using,
    /// Answers a [`Request::MetricsDump`] with the rendered exposition text
    /// (UTF-8; encoders truncate it to fit [`MAX_FRAME_LEN`]).
    MetricsText(String),
    /// The request was understood but refused.
    Error {
        /// Machine-readable refusal reason.
        code: ErrorCode,
        /// Human-readable detail (UTF-8; lossily decoded if the peer lies).
        detail: String,
    },
}

/// One row of a [`Response::QueueList`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueListRow {
    /// The queue's registry name.
    pub name: String,
    /// Backend label, e.g. `multiqueue(n=8, d=2)` (1..=[`MAX_NAME_LEN`]
    /// bytes on the wire).
    pub backend: String,
    /// Whether the backing structure has been built yet (creation is lazy).
    pub instantiated: bool,
    /// Sessions ever bound to this queue.
    pub sessions: u64,
    /// Approximate element count (`0` while uninstantiated).
    pub approx_len: u64,
    /// Operations refused by this queue's admission control.
    pub refusals: u64,
}

/// Machine-readable refusal reasons carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The insert key was `Key::MAX`, which the queues reserve as their
    /// empty-lane sentinel.
    ReservedKey,
    /// The client's frame could not be decoded (version, opcode or payload);
    /// the server closes the connection after sending this.
    Protocol,
    /// The server is shutting down and no longer serves operations.
    Unavailable,
    /// A per-queue quota (in-flight elements, session count, or op rate)
    /// refused the operation.
    QuotaExceeded,
    /// The named queue does not exist (never created, dropped, or the
    /// session's queue vanished).
    NoSuchQueue,
    /// `CreateQueue` targeted a name that already exists.
    QueueExists,
    /// The session's queue was dropped while the session was live.
    QueueDropped,
    /// The registry is at its queue-count ceiling.
    RegistryFull,
    /// The queue name is empty, too long, or holds characters outside
    /// `[A-Za-z0-9._/-]`.
    BadQueueName,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::ReservedKey => 1,
            ErrorCode::Protocol => 2,
            ErrorCode::Unavailable => 3,
            ErrorCode::QuotaExceeded => 4,
            ErrorCode::NoSuchQueue => 5,
            ErrorCode::QueueExists => 6,
            ErrorCode::QueueDropped => 7,
            ErrorCode::RegistryFull => 8,
            ErrorCode::BadQueueName => 9,
        }
    }

    fn from_u8(code: u8) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::ReservedKey),
            2 => Some(ErrorCode::Protocol),
            3 => Some(ErrorCode::Unavailable),
            4 => Some(ErrorCode::QuotaExceeded),
            5 => Some(ErrorCode::NoSuchQueue),
            6 => Some(ErrorCode::QueueExists),
            7 => Some(ErrorCode::QueueDropped),
            8 => Some(ErrorCode::RegistryFull),
            9 => Some(ErrorCode::BadQueueName),
            _ => None,
        }
    }
}

/// Per-queue entry in a [`ServiceStats`] breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// The queue's registry name.
    pub name: String,
    /// Sessions ever bound to this queue (a connection that rebinds counts
    /// once per binding).
    pub sessions: u64,
    /// The queue's merged per-session counters, refusals included.
    pub totals: HandleStats,
    /// Approximate element count at aggregation time.
    pub approx_len: u64,
}

/// The aggregate carried by [`Response::Stats`]: how many connections the
/// server has accepted, the merged [`HandleStats`] over every session on
/// every queue — live connections contribute their current counters,
/// closed ones their final counters, dropped queues their counters as of
/// the drop — the backing queues' summed lane count, and the per-queue
/// breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Connections accepted over the server's lifetime.
    pub sessions: u64,
    /// Per-session counters folded with [`HandleStats::merge`], including
    /// refusals issued by admission control.
    pub totals: HandleStats,
    /// Lanes summed over the instantiated queues (`1` per centralized
    /// backend, which reports the trivial topology).
    pub lanes: u64,
    /// Per-queue breakdown, sorted by name.
    pub queues: Vec<QueueStats>,
}

// Request opcodes.
const OP_INSERT: u8 = 0x01;
const OP_DELETE_MIN: u8 = 0x02;
const OP_DELETE_MIN_BATCH: u8 = 0x03;
const OP_APPROX_LEN: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_CREATE_QUEUE: u8 = 0x07;
const OP_DROP_QUEUE: u8 = 0x08;
const OP_LIST_QUEUES: u8 = 0x09;
const OP_USE_QUEUE: u8 = 0x0A;
const OP_METRICS_DUMP: u8 = 0x0B;

// Response opcodes (high bit set).
const OP_INSERTED: u8 = 0x81;
const OP_ENTRY: u8 = 0x82;
const OP_EMPTY: u8 = 0x83;
const OP_BATCH: u8 = 0x84;
const OP_LEN: u8 = 0x85;
const OP_STATS_REPLY: u8 = 0x86;
const OP_SHUTTING_DOWN: u8 = 0x87;
const OP_QUEUE_CREATED: u8 = 0x88;
const OP_QUEUE_DROPPED: u8 = 0x89;
const OP_QUEUE_LIST: u8 = 0x8A;
const OP_USING: u8 = 0x8B;
const OP_METRICS_DUMP_REPLY: u8 = 0x8C;
const OP_ERROR: u8 = 0xFF;

/// The layout message of every opcode that carries no payload.
const EMPTY: &str = "empty payload";

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the six [`HandleStats`] counters in their wire order.
fn put_handle_stats(out: &mut Vec<u8>, stats: &HandleStats) {
    for counter in [
        stats.inserts,
        stats.removals,
        stats.failed_removals,
        stats.empty_polls,
        stats.contended_retries,
        stats.refusals,
    ] {
        put_u64(out, counter);
    }
}

/// Appends a `Batch` payload: the entry count, then the entries.
///
/// # Panics
///
/// Panics if `entries` holds more than [`MAX_BATCH`] elements.
fn put_batch(out: &mut Vec<u8>, entries: &[(Key, u64)]) {
    assert!(
        entries.len() <= MAX_BATCH as usize,
        "batch of {} exceeds the wire limit {MAX_BATCH}",
        entries.len()
    );
    put_u32(out, entries.len() as u32);
    for (key, value) in entries {
        put_u64(out, *key);
        put_u64(out, *value);
    }
}

/// Appends a length-prefixed name/label field.
///
/// # Panics
///
/// Panics if `name` is empty or longer than [`MAX_NAME_LEN`] bytes —
/// callers validate names before they reach an encoder.
fn put_name(out: &mut Vec<u8>, name: &str) {
    assert!(
        (1..=MAX_NAME_LEN).contains(&name.len()),
        "wire names must be 1..={MAX_NAME_LEN} bytes, got {}",
        name.len()
    );
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
}

/// The longest prefix of `text` within `cap` bytes that ends on a char
/// boundary.
fn clip(text: &str, cap: usize) -> &str {
    let mut end = text.len().min(cap);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

/// Fixed-layout payload reader: every `take_*` either yields the next field
/// or reports the frame malformed (payload truncation inside a complete
/// frame is malformation, not [`WireError::Truncated`] — the length prefix
/// promised more than the opcode's layout found).
struct Payload<'a> {
    bytes: &'a [u8],
    opcode: u8,
    expected: &'static str,
}

impl<'a> Payload<'a> {
    fn new(bytes: &'a [u8], opcode: u8, expected: &'static str) -> Self {
        Self {
            bytes,
            opcode,
            expected,
        }
    }

    fn malformed(&self) -> WireError {
        WireError::MalformedPayload {
            opcode: self.opcode,
            expected: self.expected,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() < n {
            return Err(self.malformed());
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A strict boolean byte: `0` or `1`, anything else is malformed.
    fn take_bool(&mut self) -> Result<bool, WireError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.malformed()),
        }
    }

    /// A length-prefixed name/label field: 1..=[`MAX_NAME_LEN`] bytes of
    /// valid UTF-8, anything else is malformed.
    fn take_name(&mut self) -> Result<String, WireError> {
        let len = self.take_u8()? as usize;
        if !(1..=MAX_NAME_LEN).contains(&len) {
            return Err(self.malformed());
        }
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(self.malformed()),
        }
    }

    /// The six [`HandleStats`] counters in their wire order.
    fn take_handle_stats(&mut self) -> Result<HandleStats, WireError> {
        Ok(HandleStats {
            inserts: self.take_u64()?,
            removals: self.take_u64()?,
            failed_removals: self.take_u64()?,
            empty_polls: self.take_u64()?,
            contended_retries: self.take_u64()?,
            refusals: self.take_u64()?,
        })
    }

    /// Ends the layout: `value` if every byte was consumed, malformed if
    /// any trail.
    fn finish<V>(self, value: V) -> Result<V, WireError> {
        if self.bytes.is_empty() {
            Ok(value)
        } else {
            Err(self.malformed())
        }
    }
}

/// Appends one frame to `out`: the header (its flags byte set when `trace`
/// is), the trace fields, then the payload `build` writes. The length
/// prefix is patched last.
fn encode_frame<T: TraceFields>(
    out: &mut Vec<u8>,
    opcode: u8,
    trace: Option<T>,
    build: impl FnOnce(&mut Vec<u8>),
) {
    let len_at = out.len();
    put_u32(out, 0); // patched below
    let flags = if trace.is_some() {
        TRACE_FLAG_SAMPLED
    } else {
        0
    };
    out.extend_from_slice(&[WIRE_VERSION, opcode, flags]);
    if let Some(trace) = trace {
        trace.put(out);
    }
    build(out);
    let len = (out.len() - len_at - 4) as u32;
    debug_assert!(len <= MAX_FRAME_LEN, "encoder produced an oversized frame");
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// The frame size a length prefix announces, if the prefix can be valid:
/// at least the version byte, at most [`MAX_FRAME_LEN`]. How much header a
/// frame must hold depends on its version, which [`split_frame`] checks
/// first.
fn frame_size(len: u32) -> Result<usize, WireError> {
    if (1..=MAX_FRAME_LEN).contains(&len) {
        Ok(4 + len as usize)
    } else {
        Err(WireError::BadLength(len))
    }
}

/// One frame split off the front of a buffer, its header read.
struct Frame<'a, T> {
    opcode: u8,
    trace: Option<T>,
    payload: &'a [u8],
    /// Bytes the whole frame occupies, length prefix included.
    size: usize,
}

/// Splits one frame off the front of `buf` and reads its header.
fn split_frame<T: TraceFields>(buf: &[u8]) -> Result<Frame<'_, T>, WireError> {
    let Some(prefix) = buf.get(..4) else {
        return Err(WireError::Truncated {
            needed: 4 - buf.len(),
        });
    };
    let len = u32::from_le_bytes(prefix.try_into().expect("a 4-byte prefix"));
    let total = frame_size(len)?;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total - buf.len(),
        });
    }
    if buf[4] != WIRE_VERSION {
        return Err(WireError::UnknownVersion(buf[4]));
    }
    if (len as usize) < HEADER_LEN {
        return Err(WireError::BadLength(len));
    }
    let opcode = buf[5];
    let mut p = Payload::new(&buf[4 + HEADER_LEN..total], opcode, T::LAYOUT);
    let trace = match buf[6] {
        0 => None,
        TRACE_FLAG_SAMPLED => Some(T::take(&mut p)?),
        _ => return Err(p.malformed()),
    };
    Ok(Frame {
        opcode,
        trace,
        payload: p.bytes,
        size: total,
    })
}

impl Request {
    /// The opcode byte this request rides under — the label servers stamp
    /// on span records and stage metrics for a traced request.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Insert { .. } => OP_INSERT,
            Request::DeleteMin => OP_DELETE_MIN,
            Request::DeleteMinBatch { .. } => OP_DELETE_MIN_BATCH,
            Request::ApproxLen => OP_APPROX_LEN,
            Request::Stats => OP_STATS,
            Request::Shutdown => OP_SHUTDOWN,
            Request::CreateQueue { .. } => OP_CREATE_QUEUE,
            Request::DropQueue { .. } => OP_DROP_QUEUE,
            Request::ListQueues => OP_LIST_QUEUES,
            Request::UseQueue { .. } => OP_USE_QUEUE,
            Request::MetricsDump { .. } => OP_METRICS_DUMP,
        }
    }

    /// Appends this request as one untraced frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_traced(out, None);
    }

    /// Appends this request as one frame, carrying `trace` when it is
    /// sampled.
    pub fn encode_traced(&self, out: &mut Vec<u8>, trace: Option<TraceContext>) {
        encode_frame(out, self.opcode(), trace, |out| match self {
            Request::Insert { key, value } => {
                put_u64(out, *key);
                put_u64(out, *value);
            }
            Request::DeleteMinBatch { max } => put_u32(out, *max),
            Request::CreateQueue {
                name,
                backend,
                quota,
            } => {
                put_name(out, name);
                out.push(backend.code());
                let (p1, p2) = backend.params();
                put_u32(out, p1);
                put_u32(out, p2);
                put_u64(out, quota.max_inflight);
                put_u64(out, quota.ops_per_sec);
                put_u64(out, quota.burst);
            }
            Request::DropQueue { name } | Request::UseQueue { name } => put_name(out, name),
            Request::MetricsDump { include_events } => out.push(*include_events as u8),
            Request::DeleteMin
            | Request::ApproxLen
            | Request::Stats
            | Request::Shutdown
            | Request::ListQueues => {}
        });
    }

    /// Decodes one request frame from the front of `buf`, returning it and
    /// the number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Request, usize), WireError> {
        Self::decode_traced(buf).map(|(request, _, used)| (request, used))
    }

    /// Decodes one request frame, also returning its trace context (`None`
    /// for an untraced frame).
    pub fn decode_traced(buf: &[u8]) -> Result<(Request, Option<TraceContext>, usize), WireError> {
        let Frame {
            opcode,
            trace,
            payload,
            size,
        } = split_frame(buf)?;
        let layout = |expected| Payload::new(payload, opcode, expected);
        let request = match opcode {
            OP_INSERT => {
                let mut p = layout("key u64 + value u64");
                let request = Request::Insert {
                    key: p.take_u64()?,
                    value: p.take_u64()?,
                };
                p.finish(request)?
            }
            OP_DELETE_MIN => layout(EMPTY).finish(Request::DeleteMin)?,
            OP_DELETE_MIN_BATCH => {
                let mut p = layout("max u32");
                let max = p.take_u32()?;
                p.finish(Request::DeleteMinBatch { max })?
            }
            OP_APPROX_LEN => layout(EMPTY).finish(Request::ApproxLen)?,
            OP_STATS => layout(EMPTY).finish(Request::Stats)?,
            OP_SHUTDOWN => layout(EMPTY).finish(Request::Shutdown)?,
            OP_CREATE_QUEUE => {
                let mut p = layout("name + backend code u8 + 2 u32 params + 3 u64 quota fields");
                let name = p.take_name()?;
                let code = p.take_u8()?;
                let p1 = p.take_u32()?;
                let p2 = p.take_u32()?;
                let backend = BackendSpec::from_wire(code, p1, p2).ok_or_else(|| p.malformed())?;
                let quota = QuotaSpec {
                    max_inflight: p.take_u64()?,
                    ops_per_sec: p.take_u64()?,
                    burst: p.take_u64()?,
                };
                p.finish(Request::CreateQueue {
                    name,
                    backend,
                    quota,
                })?
            }
            OP_DROP_QUEUE => {
                let mut p = layout("name (u8 len + 1..=64 utf8 bytes)");
                let name = p.take_name()?;
                p.finish(Request::DropQueue { name })?
            }
            OP_LIST_QUEUES => layout(EMPTY).finish(Request::ListQueues)?,
            OP_USE_QUEUE => {
                let mut p = layout("name (u8 len + 1..=64 utf8 bytes)");
                let name = p.take_name()?;
                p.finish(Request::UseQueue { name })?
            }
            OP_METRICS_DUMP => {
                let mut p = layout("include_events u8 (0 or 1)");
                let include_events = p.take_bool()?;
                p.finish(Request::MetricsDump { include_events })?
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        Ok((request, trace, size))
    }
}

impl Response {
    fn opcode(&self) -> u8 {
        match self {
            Response::Inserted => OP_INSERTED,
            Response::Entry { .. } => OP_ENTRY,
            Response::Empty => OP_EMPTY,
            Response::Batch(_) => OP_BATCH,
            Response::Len(_) => OP_LEN,
            Response::Stats(_) => OP_STATS_REPLY,
            Response::ShuttingDown => OP_SHUTTING_DOWN,
            Response::QueueCreated => OP_QUEUE_CREATED,
            Response::QueueDropped => OP_QUEUE_DROPPED,
            Response::QueueList(_) => OP_QUEUE_LIST,
            Response::Using => OP_USING,
            Response::MetricsText(_) => OP_METRICS_DUMP_REPLY,
            Response::Error { .. } => OP_ERROR,
        }
    }

    /// Appends this response as one untraced frame.
    ///
    /// # Panics
    ///
    /// Panics if a batch holds more than [`MAX_BATCH`] entries or a queue
    /// list or Stats reply more than [`MAX_QUEUES`] rows — servers bound
    /// all three before building the response.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_traced(out, None);
    }

    /// Appends this response as one frame, carrying `trace` when the
    /// request it answers was sampled.
    ///
    /// # Panics
    ///
    /// As [`encode`](Response::encode).
    pub fn encode_traced(&self, out: &mut Vec<u8>, trace: Option<TraceEcho>) {
        encode_frame(out, self.opcode(), trace, |out| match self {
            Response::Entry { key, value } => {
                put_u64(out, *key);
                put_u64(out, *value);
            }
            Response::Batch(entries) => put_batch(out, entries),
            Response::Len(len) => put_u64(out, *len),
            Response::Stats(stats) => {
                assert!(
                    stats.queues.len() <= MAX_QUEUES,
                    "stats with {} queue rows exceeds the wire limit {MAX_QUEUES}",
                    stats.queues.len()
                );
                put_u64(out, stats.sessions);
                put_handle_stats(out, &stats.totals);
                put_u64(out, stats.lanes);
                put_u32(out, stats.queues.len() as u32);
                for queue in &stats.queues {
                    put_name(out, &queue.name);
                    put_u64(out, queue.sessions);
                    put_handle_stats(out, &queue.totals);
                    put_u64(out, queue.approx_len);
                }
            }
            Response::QueueList(rows) => {
                assert!(
                    rows.len() <= MAX_QUEUES,
                    "queue list of {} rows exceeds the wire limit {MAX_QUEUES}",
                    rows.len()
                );
                put_u32(out, rows.len() as u32);
                for row in rows {
                    put_name(out, &row.name);
                    put_name(out, &row.backend);
                    out.push(row.instantiated as u8);
                    put_u64(out, row.sessions);
                    put_u64(out, row.approx_len);
                    put_u64(out, row.refusals);
                }
            }
            // Text rides unbounded by its own layout, so it is truncated on
            // a char boundary to keep the frame within MAX_FRAME_LEN.
            Response::MetricsText(text) => {
                out.extend_from_slice(clip(text, MAX_PAYLOAD).as_bytes());
            }
            Response::Error { code, detail } => {
                out.push(code.to_u8());
                out.extend_from_slice(clip(detail, MAX_PAYLOAD - 1).as_bytes());
            }
            Response::Inserted
            | Response::Empty
            | Response::ShuttingDown
            | Response::QueueCreated
            | Response::QueueDropped
            | Response::Using => {}
        });
    }

    /// Decodes one response frame from the front of `buf`, returning it and
    /// the number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Response, usize), WireError> {
        Self::decode_traced(buf).map(|(response, _, used)| (response, used))
    }

    /// Decodes one response frame, also returning its trace echo (`None`
    /// for an untraced frame).
    pub fn decode_traced(buf: &[u8]) -> Result<(Response, Option<TraceEcho>, usize), WireError> {
        let Frame {
            opcode,
            trace,
            payload,
            size,
        } = split_frame(buf)?;
        let layout = |expected| Payload::new(payload, opcode, expected);
        let response = match opcode {
            OP_INSERTED => layout(EMPTY).finish(Response::Inserted)?,
            OP_ENTRY => {
                let mut p = layout("key u64 + value u64");
                let response = Response::Entry {
                    key: p.take_u64()?,
                    value: p.take_u64()?,
                };
                p.finish(response)?
            }
            OP_EMPTY => layout(EMPTY).finish(Response::Empty)?,
            OP_BATCH => {
                let mut p = layout("count u32 + count entries");
                let count = p.take_u32()?;
                if count > MAX_BATCH {
                    return Err(p.malformed());
                }
                let mut entries = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    entries.push((p.take_u64()?, p.take_u64()?));
                }
                p.finish(Response::Batch(entries))?
            }
            OP_LEN => {
                let mut p = layout("len u64");
                let len = p.take_u64()?;
                p.finish(Response::Len(len))?
            }
            OP_STATS_REPLY => {
                let mut p = layout("8 u64 counters + queue_count u32 + per-queue rows");
                let sessions = p.take_u64()?;
                let totals = p.take_handle_stats()?;
                let lanes = p.take_u64()?;
                let count = p.take_u32()?;
                if count as usize > MAX_QUEUES {
                    return Err(p.malformed());
                }
                let mut queues = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    queues.push(QueueStats {
                        name: p.take_name()?,
                        sessions: p.take_u64()?,
                        totals: p.take_handle_stats()?,
                        approx_len: p.take_u64()?,
                    });
                }
                p.finish(Response::Stats(ServiceStats {
                    sessions,
                    totals,
                    lanes,
                    queues,
                }))?
            }
            OP_SHUTTING_DOWN => layout(EMPTY).finish(Response::ShuttingDown)?,
            OP_QUEUE_CREATED => layout(EMPTY).finish(Response::QueueCreated)?,
            OP_QUEUE_DROPPED => layout(EMPTY).finish(Response::QueueDropped)?,
            OP_QUEUE_LIST => {
                let mut p = layout("count u32 + count queue rows");
                let count = p.take_u32()?;
                if count as usize > MAX_QUEUES {
                    return Err(p.malformed());
                }
                let mut rows = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    rows.push(QueueListRow {
                        name: p.take_name()?,
                        backend: p.take_name()?,
                        instantiated: p.take_bool()?,
                        sessions: p.take_u64()?,
                        approx_len: p.take_u64()?,
                        refusals: p.take_u64()?,
                    });
                }
                p.finish(Response::QueueList(rows))?
            }
            OP_USING => layout(EMPTY).finish(Response::Using)?,
            OP_METRICS_DUMP_REPLY => {
                Response::MetricsText(String::from_utf8_lossy(payload).into_owned())
            }
            OP_ERROR => {
                let mut p = layout("code u8 + utf8 detail");
                let raw = p.take_u8()?;
                let code = ErrorCode::from_u8(raw).ok_or_else(|| p.malformed())?;
                let detail = String::from_utf8_lossy(p.bytes).into_owned();
                Response::Error { code, detail }
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        Ok((response, trace, size))
    }
}

/// Encodes a `Batch` response frame from borrowed entries — the frame
/// `Response::Batch(entries.to_vec()).encode_traced(out, trace)` writes,
/// without giving up the caller's buffer, so a server can reuse one entries
/// vector across requests.
///
/// # Panics
///
/// Panics if `entries` holds more than [`MAX_BATCH`] elements (servers
/// clamp every batch below that).
pub fn encode_batch_response(out: &mut Vec<u8>, entries: &[(Key, u64)], trace: Option<TraceEcho>) {
    encode_frame(out, OP_BATCH, trace, |out| put_batch(out, entries));
}

/// Reads exactly one frame's bytes from a blocking stream into `scratch`
/// (cleared first), returning `Ok(false)` on a clean end-of-stream at a
/// frame boundary.
///
/// Used by both sides: the server reads request frames, the client response
/// frames; the caller then decodes `scratch` with the matching `decode`.
/// A stream that dies mid-frame surfaces as [`WireError::Truncated`]
/// wrapped in [`io::ErrorKind::UnexpectedEof`]; a bad length prefix as
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame_bytes<R: Read>(reader: &mut R, scratch: &mut Vec<u8>) -> io::Result<bool> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    WireError::Truncated {
                        needed: header.len() - filled,
                    },
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let total = frame_size(u32::from_le_bytes(header))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    scratch.clear();
    scratch.extend_from_slice(&header);
    scratch.resize(total, 0);
    reader.read_exact(&mut scratch[4..]).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                WireError::Truncated { needed: 1 },
            )
        } else {
            e
        }
    })?;
    Ok(true)
}

/// Encodes and writes one untraced response frame (no flush — the caller
/// owns the credit-window flush policy).
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    scratch.clear();
    response.encode(scratch);
    writer.write_all(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_request(r: Request) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf[4], WIRE_VERSION);
        let (decoded, used) = Request::decode(&buf).expect("round-trip");
        assert_eq!(decoded, r);
        assert_eq!(used, buf.len());
    }

    fn roundtrip_response(r: Response) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf[4], WIRE_VERSION);
        let (decoded, used) = Response::decode(&buf).expect("round-trip");
        assert_eq!(decoded, r);
        assert_eq!(used, buf.len());
    }

    /// An untraced frame whose payload `build` writes verbatim.
    fn frame(opcode: u8, build: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame::<TraceContext>(&mut buf, opcode, None, build);
        buf
    }

    /// A frame with any version and flags byte, followed by `body`
    /// verbatim.
    fn raw_frame(version: u8, opcode: u8, flags: u8, body: &[u8]) -> Vec<u8> {
        let mut buf = ((HEADER_LEN + body.len()) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[version, opcode, flags]);
        buf.extend_from_slice(body);
        buf
    }

    /// Every cut of every frame in `frames` asks both decoders for more
    /// bytes.
    fn assert_truncations_incomplete(frames: &[Vec<u8>]) {
        for frame in frames {
            for cut in 0..frame.len() {
                let request_err = Request::decode(&frame[..cut]).err();
                let response_err = Response::decode(&frame[..cut]).err();
                for err in [request_err, response_err].into_iter().flatten() {
                    assert!(
                        err.is_incomplete(),
                        "cut at {cut}/{} should be Truncated, got {err:?}",
                        frame.len()
                    );
                }
            }
        }
    }

    #[test]
    fn every_request_variant_round_trips() {
        roundtrip_request(Request::Insert { key: 7, value: 70 });
        roundtrip_request(Request::Insert {
            key: Key::MAX - 1,
            value: u64::MAX,
        });
        roundtrip_request(Request::DeleteMin);
        roundtrip_request(Request::DeleteMinBatch { max: 0 });
        roundtrip_request(Request::DeleteMinBatch { max: u32::MAX });
        roundtrip_request(Request::ApproxLen);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::ListQueues);
        roundtrip_request(Request::DropQueue {
            name: "tenant/a".to_string(),
        });
        roundtrip_request(Request::UseQueue {
            name: "x".repeat(MAX_NAME_LEN),
        });
        roundtrip_request(Request::MetricsDump {
            include_events: false,
        });
        roundtrip_request(Request::MetricsDump {
            include_events: true,
        });
        // Every backend family and a fully-populated quota.
        for backend in [
            BackendSpec::MultiQueue { lanes: 8, d: 2 },
            BackendSpec::CoarseHeap,
            BackendSpec::KLsm {
                threads: 4,
                relaxation: 256,
            },
            BackendSpec::SkipList,
        ] {
            roundtrip_request(Request::CreateQueue {
                name: "q-1.z/b_c".to_string(),
                backend,
                quota: QuotaSpec {
                    max_inflight: 1,
                    ops_per_sec: 2,
                    burst: 3,
                },
            });
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        roundtrip_response(Response::Inserted);
        roundtrip_response(Response::Entry { key: 1, value: 2 });
        roundtrip_response(Response::Empty);
        roundtrip_response(Response::Batch(vec![]));
        roundtrip_response(Response::Batch(vec![(1, 10), (2, 20), (u64::MAX, 0)]));
        roundtrip_response(Response::Len(123));
        roundtrip_response(Response::Stats(full_stats()));
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::QueueCreated);
        roundtrip_response(Response::QueueDropped);
        roundtrip_response(Response::Using);
        roundtrip_response(Response::MetricsText(String::new()));
        roundtrip_response(Response::MetricsText(
            "# TYPE mq_ops_total counter\nmq_ops_total{queue=\"default\"} 42\n".to_string(),
        ));
        roundtrip_response(Response::QueueList(vec![]));
        roundtrip_response(Response::QueueList(vec![
            QueueListRow {
                name: "default".to_string(),
                backend: "multiqueue(n=8, d=2)".to_string(),
                instantiated: true,
                sessions: 4,
                approx_len: 100,
                refusals: 3,
            },
            QueueListRow {
                name: "tenant/b".to_string(),
                backend: "skiplist".to_string(),
                instantiated: false,
                sessions: 0,
                approx_len: 0,
                refusals: 0,
            },
        ]));
        for code in [
            ErrorCode::ReservedKey,
            ErrorCode::Protocol,
            ErrorCode::Unavailable,
            ErrorCode::QuotaExceeded,
            ErrorCode::NoSuchQueue,
            ErrorCode::QueueExists,
            ErrorCode::QueueDropped,
            ErrorCode::RegistryFull,
            ErrorCode::BadQueueName,
        ] {
            roundtrip_response(Response::Error {
                code,
                detail: format!("refused: {code:?}"),
            });
        }
    }

    #[test]
    fn frames_decode_from_a_concatenated_stream() {
        let mut buf = Vec::new();
        Request::Insert { key: 1, value: 2 }.encode(&mut buf);
        Request::DeleteMin.encode(&mut buf);
        Request::UseQueue {
            name: "q".to_string(),
        }
        .encode(&mut buf);
        let (first, n1) = Request::decode(&buf).unwrap();
        assert_eq!(first, Request::Insert { key: 1, value: 2 });
        let (second, n2) = Request::decode(&buf[n1..]).unwrap();
        assert_eq!(second, Request::DeleteMin);
        let (third, n3) = Request::decode(&buf[n1 + n2..]).unwrap();
        assert_eq!(
            third,
            Request::UseQueue {
                name: "q".to_string()
            }
        );
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    #[test]
    fn truncated_prefixes_ask_for_more_bytes() {
        let mut buf = Vec::new();
        Request::Insert { key: 9, value: 9 }.encode(&mut buf);
        for cut in 0..buf.len() {
            let err = Request::decode(&buf[..cut]).expect_err("truncation must fail");
            assert!(
                err.is_incomplete(),
                "cut at {cut}/{} should be Truncated, got {err:?}",
                buf.len()
            );
        }
    }

    /// A fully-populated Stats response (all counters distinct so a
    /// field-order regression cannot cancel out), including two per-queue
    /// rows.
    fn full_stats() -> ServiceStats {
        ServiceStats {
            sessions: 0x0101,
            totals: HandleStats {
                inserts: 0x0202,
                removals: 0x0303,
                failed_removals: 0x0404,
                empty_polls: 0x0505,
                contended_retries: 0x0606,
                refusals: 0x0A0A,
            },
            lanes: 0x0707,
            queues: vec![
                QueueStats {
                    name: "default".to_string(),
                    sessions: 0x0B0B,
                    totals: HandleStats {
                        inserts: 0x0C0C,
                        removals: 0x0D0D,
                        failed_removals: 0x0E0E,
                        empty_polls: 0x0F0F,
                        contended_retries: 0x1010,
                        refusals: 0x1111,
                    },
                    approx_len: 0x1212,
                },
                QueueStats {
                    name: "tenant/a".to_string(),
                    sessions: 0x1313,
                    totals: HandleStats::default(),
                    approx_len: 0x1414,
                },
            ],
        }
    }

    /// Every truncation of a Stats reply — including cuts landing inside
    /// the per-queue rows — must report `Truncated` (the stream-reader
    /// "wait for more" signal), never decode a partial aggregate and never
    /// classify the prefix as garbage.
    #[test]
    fn stats_reply_truncations_are_incomplete_at_every_offset() {
        let stats = full_stats();
        let mut buf = Vec::new();
        Response::Stats(stats.clone()).encode(&mut buf);
        // Length prefix + header, 8 × u64, queue count, and one row per
        // queue (name field + 8 × u64 each).
        let expected_len = 4
            + HEADER_LEN
            + 8 * 8
            + 4
            + stats
                .queues
                .iter()
                .map(|q| 1 + q.name.len() + 8 * 8)
                .sum::<usize>();
        assert_eq!(buf.len(), expected_len, "Stats layout drifted");
        for cut in 0..buf.len() {
            let err = Response::decode(&buf[..cut]).expect_err("truncation must fail");
            assert!(
                err.is_incomplete(),
                "cut at {cut}/{} should be Truncated, got {err:?}",
                buf.len()
            );
        }
    }

    /// Every truncation of the registry frames is `Truncated`, in both
    /// directions.
    #[test]
    fn registry_frame_truncations_are_incomplete_at_every_offset() {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut buf = Vec::new();
        Request::CreateQueue {
            name: "tenant/a".to_string(),
            backend: BackendSpec::MultiQueue { lanes: 16, d: 4 },
            quota: QuotaSpec::unlimited().with_rate(1000, 50),
        }
        .encode(&mut buf);
        // Length prefix + header, the name field, the backend code, two u32
        // params and three u64 quota words.
        let expected_len = 4 + HEADER_LEN + (1 + 8) + 1 + 2 * 4 + 3 * 8;
        assert_eq!(buf.len(), expected_len, "CreateQueue layout drifted");
        frames.push(std::mem::take(&mut buf));
        Request::DropQueue {
            name: "tenant/a".to_string(),
        }
        .encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
        Request::ListQueues.encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
        Request::UseQueue {
            name: "q".to_string(),
        }
        .encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
        Response::QueueCreated.encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
        Response::QueueList(vec![QueueListRow {
            name: "default".to_string(),
            backend: "coarse-heap".to_string(),
            instantiated: true,
            sessions: 1,
            approx_len: 2,
            refusals: 3,
        }])
        .encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
        Response::Using.encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
        assert_truncations_incomplete(&frames);
    }

    /// The Stats reply is exactly 8 counters (`sessions`, the six
    /// `HandleStats` counters, `lanes`) and a queue count: a frame whose
    /// length prefix already excludes required fields — fewer counters, or
    /// no queue count — is a malformed payload, not a silent short decode,
    /// and so is the older 11-counter layout.
    #[test]
    fn undersized_stats_payloads_are_rejected_as_malformed() {
        let counters = |n: u64| move |out: &mut Vec<u8>| (0..n).for_each(|c| put_u64(out, c));
        let (decoded, _) = Response::decode(&frame(OP_STATS_REPLY, |out| {
            counters(8)(out);
            put_u32(out, 0);
        }))
        .expect("8 counters + an empty row count is the Stats layout");
        let Response::Stats(stats) = decoded else {
            panic!("expected stats, got {decoded:?}");
        };
        assert_eq!(
            (stats.sessions, stats.totals.refusals, stats.lanes),
            (0, 6, 7)
        );
        for n in [6u64, 7, 8, 9, 11] {
            assert!(
                matches!(
                    Response::decode(&frame(OP_STATS_REPLY, counters(n))),
                    Err(WireError::MalformedPayload {
                        opcode: OP_STATS_REPLY,
                        ..
                    })
                ),
                "{n}-counter Stats payload without a queue count must be malformed"
            );
        }
        // The 11-counter layout with its queue count: the 9th counter reads
        // as a queue count of 8 with no rows behind it.
        let eleven = frame(OP_STATS_REPLY, |out| {
            counters(11)(out);
            put_u32(out, 0);
        });
        assert!(matches!(
            Response::decode(&eleven),
            Err(WireError::MalformedPayload { .. })
        ));
    }

    /// Every truncation of a MetricsDump request or reply is incomplete, and
    /// the `include_events` flag is a strict bool.
    #[test]
    fn metrics_dump_frames_truncate_cleanly_and_take_a_strict_bool() {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut buf = Vec::new();
        Request::MetricsDump {
            include_events: false,
        }
        .encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
        Response::MetricsText("mq_ops_total 7\n".to_string()).encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
        assert_truncations_incomplete(&frames);
        assert!(matches!(
            Request::decode(&frame(OP_METRICS_DUMP, |out| out.push(2))),
            Err(WireError::MalformedPayload { .. })
        ));
    }

    #[test]
    fn wire_names_are_validated_on_decode() {
        let malformed = |buf: Vec<u8>| {
            matches!(
                Request::decode(&buf),
                Err(WireError::MalformedPayload { .. })
            )
        };
        // Zero-length name.
        assert!(malformed(frame(OP_USE_QUEUE, |out| out.push(0))));
        // Length byte beyond MAX_NAME_LEN.
        assert!(malformed(frame(OP_USE_QUEUE, |out| {
            out.push((MAX_NAME_LEN + 1) as u8);
            out.extend_from_slice(&[b'a'; MAX_NAME_LEN + 1]);
        })));
        // Length byte promising more than the payload carries.
        assert!(malformed(frame(OP_DROP_QUEUE, |out| {
            out.push(10);
            out.extend_from_slice(b"abc");
        })));
        // Invalid UTF-8 in the name bytes.
        assert!(malformed(frame(OP_USE_QUEUE, |out| {
            out.push(2);
            out.extend_from_slice(&[0xFF, 0xFE]);
        })));
        // Trailing bytes after a well-formed name.
        assert!(malformed(frame(OP_USE_QUEUE, |out| {
            out.push(1);
            out.push(b'q');
            out.push(0);
        })));
    }

    #[test]
    fn unknown_backend_codes_and_oversized_row_counts_are_malformed() {
        // CreateQueue with an unassigned backend code (1 is the retired
        // elastic family).
        for code in [1u8, 99] {
            let buf = frame(OP_CREATE_QUEUE, |out| {
                out.push(1);
                out.push(b'q');
                out.push(code);
                for _ in 0..2 {
                    put_u32(out, 0);
                }
                for _ in 0..3 {
                    put_u64(out, 0);
                }
            });
            assert!(
                matches!(
                    Request::decode(&buf),
                    Err(WireError::MalformedPayload {
                        opcode: OP_CREATE_QUEUE,
                        ..
                    })
                ),
                "backend code {code} must be malformed"
            );
        }
        // QueueList promising more rows than the registry can hold is
        // refused before allocation.
        let buf = frame(OP_QUEUE_LIST, |out| put_u32(out, (MAX_QUEUES + 1) as u32));
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Same bound on the Stats per-queue row count.
        let buf = frame(OP_STATS_REPLY, |out| {
            for _ in 0..8 {
                put_u64(out, 0);
            }
            put_u32(out, (MAX_QUEUES + 1) as u32);
        });
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // A QueueList row with an instantiated byte that is neither 0 nor 1.
        let buf = frame(OP_QUEUE_LIST, |out| {
            put_u32(out, 1);
            out.push(1);
            out.push(b'q');
            out.push(1);
            out.push(b'h');
            out.push(2); // bad bool
            for _ in 0..3 {
                put_u64(out, 0);
            }
        });
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
    }

    /// The checked-in regression corpus (`proptest-regressions/protocol.txt`):
    /// byte sequences that exercised decoder edge cases — hostile lengths,
    /// frames stamped with other versions, payload-layout violations,
    /// every-offset truncations of the widest frames. Each line is
    /// `hex-bytes [# comment]`; both decoders must stay total over every
    /// entry, and valid frames must consume exactly what they claim.
    #[test]
    fn regression_corpus_keeps_the_decoders_total() {
        let corpus = include_str!("../proptest-regressions/protocol.txt");
        let mut cases = 0usize;
        for (lineno, line) in corpus.lines().enumerate() {
            let data = line.split('#').next().unwrap_or("").trim();
            if data.is_empty() {
                continue;
            }
            let bytes: Vec<u8> = data
                .split_whitespace()
                .map(|h| {
                    u8::from_str_radix(h, 16)
                        .unwrap_or_else(|_| panic!("bad hex {h:?} on corpus line {}", lineno + 1))
                })
                .collect();
            // Totality: a frame or an error, never a panic; on success the
            // consumed length stays within the buffer.
            if let Ok((_, used)) = Request::decode(&bytes) {
                assert!(used <= bytes.len(), "corpus line {}", lineno + 1);
            }
            if let Ok((_, used)) = Response::decode(&bytes) {
                assert!(used <= bytes.len(), "corpus line {}", lineno + 1);
            }
            cases += 1;
        }
        assert!(cases >= 20, "corpus unexpectedly small: {cases} entries");
    }

    #[test]
    fn version_and_opcode_are_validated() {
        let mut request = Vec::new();
        Request::DeleteMin.encode(&mut request);
        let mut response = Vec::new();
        Response::Empty.encode(&mut response);
        // Every other stamp is refused, in both directions, on an otherwise
        // well-formed frame.
        for version in [0u8, 1, 2, 3, 4, 5, 6, 9, 0xFF] {
            let mut stamped = request.clone();
            stamped[4] = version;
            assert_eq!(
                Request::decode(&stamped),
                Err(WireError::UnknownVersion(version))
            );
            let mut stamped = response.clone();
            stamped[4] = version;
            assert_eq!(
                Response::decode(&stamped),
                Err(WireError::UnknownVersion(version))
            );
        }
        // Frames in the older header without a flags byte are refused by
        // their stamp, before their length is read as a header.
        for version in 2u8..=4 {
            let old = [2, 0, 0, 0, version, OP_DELETE_MIN];
            assert_eq!(
                Request::decode(&old),
                Err(WireError::UnknownVersion(version))
            );
        }
        let mut wrong_opcode = request.clone();
        wrong_opcode[5] = 0x7E;
        assert_eq!(
            Request::decode(&wrong_opcode),
            Err(WireError::UnknownOpcode(0x7E))
        );
        // A response opcode is not a request.
        assert_eq!(
            Request::decode(&response),
            Err(WireError::UnknownOpcode(OP_EMPTY))
        );
    }

    #[test]
    fn hostile_lengths_are_rejected_without_allocating() {
        // Length 0 cannot hold a version byte.
        let mut buf = 0u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(Request::decode(&buf), Err(WireError::BadLength(0)));
        // Lengths 1 and 2 cannot hold the version, opcode and flags bytes.
        for len in [1u32, 2] {
            let mut buf = len.to_le_bytes().to_vec();
            buf.extend_from_slice(&[WIRE_VERSION, OP_DELETE_MIN][..len as usize]);
            assert_eq!(Request::decode(&buf), Err(WireError::BadLength(len)));
        }
        // A huge length prefix must fail fast, not wait for 4 GiB.
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[WIRE_VERSION, OP_DELETE_MIN, 0]);
        assert_eq!(Request::decode(&buf), Err(WireError::BadLength(u32::MAX)));
        // One past the ceiling is rejected the same way.
        let mut buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[WIRE_VERSION, OP_DELETE_MIN, 0]);
        assert_eq!(
            Request::decode(&buf),
            Err(WireError::BadLength(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn payload_layout_is_enforced_exactly() {
        // Insert with a short payload: layout needs 16 body bytes, got 8.
        let buf = frame(OP_INSERT, |out| out.extend_from_slice(&[0; 8]));
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload {
                opcode: OP_INSERT,
                ..
            })
        ));
        // DeleteMin with trailing bytes.
        let buf = frame(OP_DELETE_MIN, |out| out.push(0));
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Batch response whose count promises more entries than the frame
        // carries.
        let buf = frame(OP_BATCH, |out| put_u32(out, 3));
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Batch count beyond the wire limit is refused before allocation.
        let buf = frame(OP_BATCH, |out| put_u32(out, MAX_BATCH + 1));
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
    }

    #[test]
    fn oversized_error_detail_is_truncated_to_fit() {
        let huge = "é".repeat(MAX_FRAME_LEN as usize); // 2 bytes per char
        let echo = Some(TraceEcho {
            trace_id: 1,
            server_ns: 2,
        });
        for response in [
            Response::Error {
                code: ErrorCode::Protocol,
                detail: huge.clone(),
            },
            Response::MetricsText(huge),
        ] {
            // Even with the widest trace fields the frame fits the ceiling.
            let mut buf = Vec::new();
            response.encode_traced(&mut buf, echo);
            assert!(buf.len() - 4 <= MAX_FRAME_LEN as usize);
            let (decoded, trace, used) =
                Response::decode_traced(&buf).expect("truncated text still decodes");
            assert_eq!(used, buf.len());
            assert_eq!(trace, echo);
            match decoded {
                Response::Error { code, detail } => {
                    assert_eq!(code, ErrorCode::Protocol);
                    assert!(!detail.is_empty());
                }
                Response::MetricsText(text) => assert!(!text.is_empty()),
                other => panic!("expected a text frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn borrowed_batch_encoder_matches_the_owned_one() {
        let traces = [
            None,
            Some(TraceEcho {
                trace_id: 0xDEAD_BEEF,
                server_ns: 4242,
            }),
        ];
        for entries in [vec![], vec![(1u64, 10u64)], vec![(5, 50), (2, 20), (9, 90)]] {
            for trace in traces {
                let mut borrowed = Vec::new();
                encode_batch_response(&mut borrowed, &entries, trace);
                let owned = Response::Batch(entries.clone());
                assert_eq!(
                    Response::decode_traced(&borrowed),
                    Ok((owned.clone(), trace, borrowed.len()))
                );
                let mut encoded = Vec::new();
                owned.encode_traced(&mut encoded, trace);
                assert_eq!(borrowed, encoded, "the two encoders must stay in lockstep");
            }
        }
    }

    #[test]
    fn read_frame_bytes_round_trips_and_reports_clean_eof() {
        let mut wire = Vec::new();
        Request::Insert { key: 4, value: 44 }.encode(&mut wire);
        Request::ApproxLen.encode(&mut wire);
        let mut cursor = io::Cursor::new(wire);
        let mut frame = Vec::new();
        assert!(read_frame_bytes(&mut cursor, &mut frame).unwrap());
        assert_eq!(
            Request::decode(&frame).unwrap().0,
            Request::Insert { key: 4, value: 44 }
        );
        assert!(read_frame_bytes(&mut cursor, &mut frame).unwrap());
        assert_eq!(Request::decode(&frame).unwrap().0, Request::ApproxLen);
        assert!(!read_frame_bytes(&mut cursor, &mut frame).unwrap());
    }

    #[test]
    fn read_frame_bytes_flags_mid_frame_death() {
        let mut wire = Vec::new();
        Request::Insert { key: 4, value: 44 }.encode(&mut wire);
        wire.truncate(wire.len() - 3);
        let mut cursor = io::Cursor::new(wire);
        let mut frame = Vec::new();
        let err = read_frame_bytes(&mut cursor, &mut frame).expect_err("mid-frame EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Traced frames round-trip their trace fields in both directions, and
    /// untraced frames decode with no trace at the cost of the flags byte.
    #[test]
    fn traced_frames_round_trip_the_trace_fields() {
        let trace = TraceContext {
            trace_id: 0x0123_4567_89AB_CDEF,
        };
        let mut buf = Vec::new();
        Request::Insert { key: 7, value: 70 }.encode_traced(&mut buf, Some(trace));
        let (request, decoded_trace, used) =
            Request::decode_traced(&buf).expect("traced request decodes");
        assert_eq!(request, Request::Insert { key: 7, value: 70 });
        assert_eq!(decoded_trace, Some(trace));
        assert_eq!(used, buf.len());

        let echo = TraceEcho {
            trace_id: trace.trace_id,
            server_ns: 12_345,
        };
        let mut buf = Vec::new();
        Response::Entry { key: 7, value: 70 }.encode_traced(&mut buf, Some(echo));
        let (response, decoded_echo, used) =
            Response::decode_traced(&buf).expect("traced response decodes");
        assert_eq!(response, Response::Entry { key: 7, value: 70 });
        assert_eq!(decoded_echo, Some(echo));
        assert_eq!(used, buf.len());

        // Untraced frames are the bare header and decode to None.
        let mut plain = Vec::new();
        Request::DeleteMin.encode(&mut plain);
        assert_eq!(plain.len(), 4 + HEADER_LEN, "DeleteMin is the bare header");
        assert_eq!(plain[6], 0, "the flags byte is always present");
        let (_, no_trace, _) = Request::decode_traced(&plain).unwrap();
        assert_eq!(no_trace, None);
        // The traced variant costs exactly the 8-byte trace id more.
        let mut traced = Vec::new();
        Request::DeleteMin.encode_traced(&mut traced, Some(trace));
        assert_eq!(traced.len(), plain.len() + 8);
        assert_eq!(traced[6], TRACE_FLAG_SAMPLED);
    }

    /// Every truncation of a traced frame — cuts landing inside the trace
    /// fields included — reports `Truncated`, never a partial decode and
    /// never garbage.
    #[test]
    fn traced_frame_truncations_are_incomplete_at_every_offset() {
        let trace = Some(TraceContext { trace_id: u64::MAX });
        let echo = Some(TraceEcho {
            trace_id: u64::MAX,
            server_ns: u64::MAX,
        });
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut buf = Vec::new();
        Request::Insert {
            key: 0xAA,
            value: 0xBB,
        }
        .encode_traced(&mut buf, trace);
        frames.push(std::mem::take(&mut buf));
        Request::MetricsDump {
            include_events: true,
        }
        .encode_traced(&mut buf, trace);
        frames.push(std::mem::take(&mut buf));
        Response::Entry {
            key: 0xCC,
            value: 0xDD,
        }
        .encode_traced(&mut buf, echo);
        frames.push(std::mem::take(&mut buf));
        Response::Batch(vec![(1, 10), (2, 20)]).encode_traced(&mut buf, echo);
        frames.push(std::mem::take(&mut buf));
        Response::Stats(full_stats()).encode_traced(&mut buf, echo);
        frames.push(std::mem::take(&mut buf));
        assert_truncations_incomplete(&frames);
    }

    /// Unassigned trace-flag bits are malformed in both directions — a peer
    /// never silently skips trace fields it does not understand.
    #[test]
    fn garbage_trace_flags_are_malformed() {
        // Enough bytes to satisfy any field the flags could promise.
        let body = [0u8; 16];
        for flags in [0x02u8, 0x03, 0x80, 0xFE, 0xFF] {
            assert!(
                matches!(
                    Request::decode_traced(&raw_frame(WIRE_VERSION, OP_DELETE_MIN, flags, &body)),
                    Err(WireError::MalformedPayload { .. })
                ),
                "request flags {flags:#04x} must be malformed"
            );
            assert!(
                matches!(
                    Response::decode_traced(&raw_frame(WIRE_VERSION, OP_EMPTY, flags, &body)),
                    Err(WireError::MalformedPayload { .. })
                ),
                "response flags {flags:#04x} must be malformed"
            );
        }
        // A sampled frame whose promised trace fields are missing is
        // malformed too (the length prefix said the frame was complete).
        let short = raw_frame(WIRE_VERSION, OP_DELETE_MIN, TRACE_FLAG_SAMPLED, &[0; 4]);
        assert!(matches!(
            Request::decode_traced(&short),
            Err(WireError::MalformedPayload { .. })
        ));
        let short = raw_frame(WIRE_VERSION, OP_EMPTY, TRACE_FLAG_SAMPLED, &[0; 8]);
        assert!(matches!(
            Response::decode_traced(&short),
            Err(WireError::MalformedPayload { .. })
        ));
    }

    /// `Request::opcode` matches the byte actually emitted on the wire for
    /// every variant.
    #[test]
    fn request_opcode_matches_the_wire_byte() {
        let requests = [
            Request::Insert { key: 1, value: 2 },
            Request::DeleteMin,
            Request::DeleteMinBatch { max: 3 },
            Request::ApproxLen,
            Request::Stats,
            Request::Shutdown,
            Request::CreateQueue {
                name: "q".to_string(),
                backend: BackendSpec::default_multiqueue(),
                quota: QuotaSpec::unlimited(),
            },
            Request::DropQueue {
                name: "q".to_string(),
            },
            Request::ListQueues,
            Request::UseQueue {
                name: "q".to_string(),
            },
            Request::MetricsDump {
                include_events: false,
            },
        ];
        for request in requests {
            let mut buf = Vec::new();
            request.encode(&mut buf);
            assert_eq!(buf[5], request.opcode(), "{request:?}");
        }
    }

    /// The assigned `BackendSpec` wire codes (1 is unassigned).
    const BACKEND_CODES: [u8; 4] = [0, 2, 3, 4];

    /// Builds a valid queue name from a numeric seed (the proptest shim has
    /// no string strategies).
    fn name_from_seed(seed: u64) -> String {
        let len = 1 + (seed % MAX_NAME_LEN as u64) as usize;
        let alphabet = b"abcdefghij0123-_./";
        (0..len)
            .map(|i| alphabet[((seed >> (i % 56)) as usize + i) % alphabet.len()] as char)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn requests_round_trip(key in 0u64..u64::MAX, value in 0u64..=u64::MAX, max in 0u32..=u32::MAX, pick in 0u8..11) {
            let name = name_from_seed(key ^ value);
            let request = match pick {
                0 => Request::Insert { key, value },
                1 => Request::DeleteMin,
                2 => Request::DeleteMinBatch { max },
                3 => Request::ApproxLen,
                4 => Request::Stats,
                5 => Request::Shutdown,
                6 => Request::CreateQueue {
                    name,
                    backend: BackendSpec::from_wire(
                        BACKEND_CODES[(key % 4) as usize],
                        max,
                        max / 2,
                    )
                    .expect("assigned backend code"),
                    quota: QuotaSpec {
                        max_inflight: key,
                        ops_per_sec: key ^ value,
                        burst: key.wrapping_add(value),
                    },
                },
                7 => Request::DropQueue { name },
                8 => Request::ListQueues,
                9 => Request::UseQueue { name },
                _ => Request::MetricsDump { include_events: key % 2 == 0 },
            };
            let mut buf = Vec::new();
            request.encode(&mut buf);
            let (decoded, used) = Request::decode(&buf).expect("encoded frames decode");
            prop_assert_eq!(decoded, request);
            prop_assert_eq!(used, buf.len());
        }

        #[test]
        fn responses_round_trip(
            entries in proptest::collection::vec(0u64..=u64::MAX, 0..32),
            n in 0u64..=u64::MAX,
            pick in 0u8..13,
        ) {
            let pairs: Vec<(u64, u64)> = entries.iter().map(|&k| (k, k ^ 0xABCD)).collect();
            let response = match pick {
                0 => Response::Inserted,
                1 => Response::Entry { key: n, value: !n },
                2 => Response::Empty,
                3 => Response::Batch(pairs),
                4 => Response::Len(n),
                5 => Response::Stats(ServiceStats {
                    sessions: n,
                    totals: HandleStats {
                        inserts: n,
                        removals: n / 2,
                        failed_removals: n / 3,
                        empty_polls: n / 4,
                        contended_retries: n / 5,
                        refusals: n / 8,
                    },
                    lanes: n / 6,
                    queues: entries
                        .iter()
                        .take(4)
                        .map(|&k| QueueStats {
                            name: name_from_seed(k),
                            sessions: k,
                            totals: HandleStats {
                                inserts: k,
                                removals: k / 2,
                                failed_removals: k / 3,
                                empty_polls: k / 4,
                                contended_retries: k / 5,
                                refusals: k / 6,
                            },
                            approx_len: k / 7,
                        })
                        .collect(),
                }),
                6 => Response::ShuttingDown,
                7 => Response::QueueCreated,
                8 => Response::QueueDropped,
                9 => Response::QueueList(
                    entries
                        .iter()
                        .take(4)
                        .map(|&k| QueueListRow {
                            name: name_from_seed(k),
                            backend: name_from_seed(!k),
                            instantiated: k % 2 == 0,
                            sessions: k,
                            approx_len: k / 2,
                            refusals: k / 3,
                        })
                        .collect(),
                ),
                10 => Response::Using,
                11 => Response::MetricsText(format!("# dump {n}\nmq_ops_total {n}\n")),
                _ => Response::Error {
                    code: ErrorCode::from_u8(1 + (n % 9) as u8).expect("codes 1..=9 are assigned"),
                    detail: format!("n = {n}"),
                },
            };
            let mut buf = Vec::new();
            response.encode(&mut buf);
            let (decoded, used) = Response::decode(&buf).expect("encoded frames decode");
            prop_assert_eq!(decoded, response);
            prop_assert_eq!(used, buf.len());
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
            // Totality: garbage in, error (or a frame) out — never a panic,
            // and on success the consumed length stays within the buffer.
            if let Ok((_, used)) = Request::decode(&bytes) {
                prop_assert!(used <= bytes.len());
            }
            if let Ok((_, used)) = Response::decode(&bytes) {
                prop_assert!(used <= bytes.len());
            }
        }

        #[test]
        fn every_truncation_of_a_valid_frame_is_incomplete(key in 0u64..100, cut_seed in 0u64..=u64::MAX) {
            let mut buf = Vec::new();
            Request::Insert { key, value: key }.encode(&mut buf);
            let cut = (cut_seed % buf.len() as u64) as usize;
            let err = Request::decode(&buf[..cut]).expect_err("prefix cannot be a whole frame");
            prop_assert!(err.is_incomplete(), "cut {cut}: {err:?}");
        }

        #[test]
        fn traced_frames_round_trip_and_truncate_cleanly(
            trace_id in 0u64..=u64::MAX,
            server_ns in 0u64..=u64::MAX,
            key in 0u64..1000,
            cut_seed in 0u64..=u64::MAX,
        ) {
            let mut buf = Vec::new();
            Request::Insert { key, value: !key }
                .encode_traced(&mut buf, Some(TraceContext { trace_id }));
            let (_, trace, used) = Request::decode_traced(&buf).expect("traced requests decode");
            prop_assert_eq!(trace, Some(TraceContext { trace_id }));
            prop_assert_eq!(used, buf.len());
            let cut = (cut_seed % buf.len() as u64) as usize;
            let err = Request::decode_traced(&buf[..cut]).expect_err("prefix cannot be a whole frame");
            prop_assert!(err.is_incomplete(), "cut {cut}: {err:?}");

            let mut buf = Vec::new();
            Response::Entry { key, value: key }
                .encode_traced(&mut buf, Some(TraceEcho { trace_id, server_ns }));
            let (_, echo, used) = Response::decode_traced(&buf).expect("traced responses decode");
            prop_assert_eq!(echo, Some(TraceEcho { trace_id, server_ns }));
            prop_assert_eq!(used, buf.len());
            let cut = (cut_seed % buf.len() as u64) as usize;
            let err = Response::decode_traced(&buf[..cut]).expect_err("prefix cannot be a whole frame");
            prop_assert!(err.is_incomplete(), "cut {cut}: {err:?}");
        }

        #[test]
        fn every_truncation_of_a_create_queue_frame_is_incomplete(seed in 0u64..=u64::MAX, cut_seed in 0u64..=u64::MAX) {
            let mut buf = Vec::new();
            Request::CreateQueue {
                name: name_from_seed(seed),
                backend: BackendSpec::from_wire(BACKEND_CODES[(seed % 4) as usize], 8, 2).unwrap(),
                quota: QuotaSpec::unlimited().with_max_inflight(seed),
            }
            .encode(&mut buf);
            let cut = (cut_seed % buf.len() as u64) as usize;
            let err = Request::decode(&buf[..cut]).expect_err("prefix cannot be a whole frame");
            prop_assert!(err.is_incomplete(), "cut {cut}: {err:?}");
        }
    }
}
