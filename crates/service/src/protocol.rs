//! The choice-wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame — in both directions — has the same 6-byte header:
//!
//! ```text
//! [ length: u32 LE ][ version: u8 ][ opcode: u8 ][ payload ... ]
//! ```
//!
//! `length` counts everything after the length field itself (version byte,
//! opcode byte, payload), so a reader can always consume exactly one frame
//! knowing only the first four bytes. The version byte rides in every frame
//! rather than a one-shot handshake: it keeps the protocol stateless per
//! frame (a mid-stream corruption cannot silently re-version a connection)
//! and costs one byte. The current version is [`WIRE_VERSION`]; every
//! version down to [`MIN_WIRE_VERSION`] still decodes, and responders echo
//! the request's version so old clients keep working unchanged.
//!
//! Integers are little-endian throughout. Payloads are fixed-layout —
//! nothing is self-describing — which keeps encode/decode branch-free and
//! the frames small: an `Insert` is 22 bytes on the wire, a `DeleteMin` 6.
//! Queue names ride as a one-byte length followed by 1..=64 bytes of UTF-8.
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

/// The protocol version this build speaks (the default for every encoded
/// frame).
///
/// Version history: v1 carried a 7-counter Stats payload; v2 extended it
/// with the queue-topology triple (`active_lanes`, `max_lanes`,
/// `resize_events`); v3 adds the queue-registry operations (`CreateQueue` /
/// `DropQueue` / `ListQueues` / `UseQueue`), a `refusals` counter, and a
/// per-queue breakdown in the Stats reply; v4 adds the telemetry op
/// `MetricsDump` (a Prometheus-style exposition dump with an optional
/// flight-recorder event tail) and a `resize_epoch` field in the Stats
/// topology row; v5 (current) prepends a one-byte trace envelope to every
/// payload — a flags byte, plus (when [`TRACE_FLAG_SAMPLED`] is set) a
/// request-side `trace_id` and a response-side `trace_id` + `server_ns`
/// echo — so sampled requests carry end-to-end trace context while
/// unsampled traffic pays exactly one byte. Fixed layouts are not
/// self-describing, so any layout change is a version bump.
pub const WIRE_VERSION: u8 = 5;

/// The oldest version this build still decodes and answers. v2 frames
/// carry no registry opcodes and receive the legacy 9-counter Stats
/// layout; a v2 peer is implicitly bound to the server's default queue and
/// never observes v3 at all.
pub const MIN_WIRE_VERSION: u8 = 2;

/// Hard ceiling on `length` (version + opcode + payload, bytes). Large
/// enough for a [`MAX_BATCH`]-entry batch response and for a Stats or
/// ListQueues reply carrying [`MAX_QUEUES`] per-queue rows, small enough
/// that a malicious length prefix cannot make either side allocate
/// unboundedly.
pub const MAX_FRAME_LEN: u32 = 256 * 1024;

/// Largest `DeleteMinBatch` size the protocol will carry in one frame.
/// Servers clamp larger requests to their own (possibly smaller) limit.
pub const MAX_BATCH: u32 = 4096;

/// v5 trace-envelope flag: the frame carries trace fields (request:
/// `trace_id u64`; response: `trace_id u64` + `server_ns u64`). All other
/// flag bits are unassigned and decode as [`WireError::MalformedPayload`] —
/// a future version that assigns one is a version bump, so v5 peers never
/// silently skip fields they do not understand.
pub const TRACE_FLAG_SAMPLED: u8 = 0x01;

/// Largest v5 trace envelope either direction can carry (flags byte +
/// response-side `trace_id` + `server_ns`). Encoders that bound a payload
/// against [`MAX_FRAME_LEN`] leave this much headroom so splicing the
/// envelope in can never push a frame over the ceiling.
const MAX_TRACE_ENVELOPE: usize = 17;

/// The trace context a v5 client stamps on a sampled request: an opaque
/// 8-byte id the server echoes back so the client can pair the response
/// (and its server-side timing) with the request it measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-chosen trace id (opaque to the server; echoed verbatim).
    pub trace_id: u64,
}

/// The trace echo a v5 server stamps on the response to a sampled request.
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
    /// the mandatory version and opcode bytes).
    BadLength(u32),
    /// The version byte falls outside
    /// [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`].
    UnknownVersion(u8),
    /// The opcode byte names no known frame type (for the direction being
    /// decoded) — including v3-only opcodes arriving in an older-version
    /// frame, which that version never assigned.
    UnknownOpcode(u8),
    /// The opcode was recognised but the payload does not have the exact
    /// layout that opcode requires.
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
                "frame length {len} outside the valid range 2..={MAX_FRAME_LEN}"
            ),
            WireError::UnknownVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {MIN_WIRE_VERSION}..={WIRE_VERSION})"
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
    /// Read the server's aggregated statistics, including (v3) the
    /// per-queue breakdown.
    Stats,
    /// Ask the server process to shut down (drains cleanly; the response is
    /// [`Response::ShuttingDown`]).
    Shutdown,
    /// v3: register a new named queue built from a declarative backend spec
    /// and a resource quota. Creation is lazy — the structure is built on
    /// first use.
    CreateQueue {
        /// Registry name, 1..=[`MAX_NAME_LEN`] bytes.
        name: String,
        /// Which backend to build and how to size it.
        backend: BackendSpec,
        /// The queue's resource budget.
        quota: QuotaSpec,
    },
    /// v3: drop a named queue. Sessions bound to it receive typed
    /// [`ErrorCode::QueueDropped`] refusals from then on.
    DropQueue {
        /// The queue to drop.
        name: String,
    },
    /// v3: list every registered queue.
    ListQueues,
    /// v3: rebind this connection's session to the named queue. On success
    /// the old session ends (its counters roll up into its queue) and a
    /// fresh session opens on the target.
    UseQueue {
        /// The queue to bind.
        name: String,
    },
    /// v4: read the server's telemetry as a Prometheus-style text dump,
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
    /// v3: acknowledges a [`Request::CreateQueue`].
    QueueCreated,
    /// v3: acknowledges a [`Request::DropQueue`].
    QueueDropped,
    /// v3: answers a [`Request::ListQueues`].
    QueueList(Vec<QueueListRow>),
    /// v3: acknowledges a [`Request::UseQueue`]; subsequent session
    /// operations run against the new queue.
    Using,
    /// v4: answers a [`Request::MetricsDump`] with the rendered exposition
    /// text (UTF-8; servers truncate it to fit [`MAX_FRAME_LEN`]).
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
///
/// Codes above [`ErrorCode::Unavailable`] are v3 additions; when a response
/// must be encoded for a v2 peer they are mapped down to `Unavailable`
/// (the strongest "not served" signal that version can express).
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
    /// v3: a per-queue quota (in-flight elements, session count, or op
    /// rate) refused the operation.
    QuotaExceeded,
    /// v3: the named queue does not exist (never created, dropped, or the
    /// session's queue vanished).
    NoSuchQueue,
    /// v3: `CreateQueue` targeted a name that already exists.
    QueueExists,
    /// v3: the session's queue was dropped while the session was live.
    QueueDropped,
    /// v3: the registry is at its queue-count ceiling.
    RegistryFull,
    /// v3: the queue name is empty, too long, or holds characters outside
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

    /// The byte actually sent for `version`: v3 codes collapse to
    /// `Unavailable` on a v2 frame.
    fn to_wire(self, version: u8) -> u8 {
        let code = self.to_u8();
        if version < 3 && code > ErrorCode::Unavailable.to_u8() {
            ErrorCode::Unavailable.to_u8()
        } else {
            code
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

/// Per-queue entry in a v3 [`ServiceStats`] breakdown.
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
/// the drop — the backing queues' summed lane count, and (v3) the
/// per-queue breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Connections accepted over the server's lifetime.
    pub sessions: u64,
    /// Per-session counters folded with [`HandleStats::merge`], including
    /// refusals issued by admission control.
    pub totals: HandleStats,
    /// Lanes summed over the instantiated queues (`1` per centralized
    /// backend, which reports the trivial topology). Lane counts are fixed,
    /// so this always equals `max_lanes`.
    pub active_lanes: u64,
    /// Lanes summed over the instantiated queues (the same sum as
    /// `active_lanes`; the wire layout keeps both fields).
    pub max_lanes: u64,
    /// Always `0`: lane counts never change. Kept so the Stats layout is
    /// unchanged.
    pub resize_events: u64,
    /// v4: always `0`, like `resize_events`; kept so the Stats layout is
    /// unchanged. `0` when decoded from a pre-v4 frame as well.
    pub resize_epoch: u64,
    /// v3: per-queue breakdown, sorted by name. Empty when decoded from a
    /// v2 frame (the legacy layout has no rows).
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

/// The oldest version at which a request opcode exists ([`MIN_WIRE_VERSION`]
/// for the original set). A frame carrying an opcode younger than its
/// version byte decodes as [`WireError::UnknownOpcode`] — that version
/// never assigned it.
fn request_opcode_min_version(opcode: u8) -> u8 {
    match opcode {
        OP_CREATE_QUEUE | OP_DROP_QUEUE | OP_LIST_QUEUES | OP_USE_QUEUE => 3,
        OP_METRICS_DUMP => 4,
        _ => MIN_WIRE_VERSION,
    }
}

/// The oldest version at which a response opcode exists.
fn response_opcode_min_version(opcode: u8) -> u8 {
    match opcode {
        OP_QUEUE_CREATED | OP_QUEUE_DROPPED | OP_QUEUE_LIST | OP_USING => 3,
        OP_METRICS_DUMP_REPLY => 4,
        _ => MIN_WIRE_VERSION,
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
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

    fn finish(self) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(self.malformed())
        }
    }
}

/// Appends one framed message (header + payload) to `out`, stamping the
/// given version byte.
fn encode_frame(out: &mut Vec<u8>, version: u8, opcode: u8, build: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    put_u32(out, 0); // patched below
    out.push(version);
    out.push(opcode);
    build(out);
    let len = (out.len() - len_at - 4) as u32;
    debug_assert!(len <= MAX_FRAME_LEN, "encoder produced an oversized frame");
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Splits one frame off the front of `buf`: returns the frame's version,
/// opcode, payload slice, and the total number of bytes it occupies.
fn split_frame(buf: &[u8]) -> Result<(u8, u8, &[u8], usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated {
            needed: 4 - buf.len(),
        });
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if !(2..=MAX_FRAME_LEN).contains(&len) {
        return Err(WireError::BadLength(len));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total - buf.len(),
        });
    }
    let version = buf[4];
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::UnknownVersion(version));
    }
    Ok((version, buf[5], &buf[6..total], total))
}

/// Inserts `envelope` at the payload head of the frame that starts at
/// `start` in `out` (right after the 6-byte header) and patches the length
/// prefix. Keeping the envelope a post-pass means the per-opcode body
/// encoders stay identical across versions.
fn splice_envelope(out: &mut Vec<u8>, start: usize, envelope: &[u8]) {
    let insert_at = start + 6;
    out.splice(insert_at..insert_at, envelope.iter().copied());
    let len = u32::from_le_bytes(out[start..start + 4].try_into().unwrap());
    let len = len + envelope.len() as u32;
    debug_assert!(len <= MAX_FRAME_LEN, "trace envelope overflowed the frame");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Splices the v5 request envelope (flags byte, plus the trace id when
/// sampled) into the frame at `start`. Pre-v5 frames have no envelope, so
/// a trace handed to an old-version encoder is silently dropped — tracing
/// is a v5 feature, not something to smuggle into frozen layouts.
fn splice_request_envelope(
    out: &mut Vec<u8>,
    start: usize,
    version: u8,
    trace: Option<TraceContext>,
) {
    if version < 5 {
        return;
    }
    let mut env = [0u8; 9];
    let used = match trace {
        Some(t) => {
            env[0] = TRACE_FLAG_SAMPLED;
            env[1..9].copy_from_slice(&t.trace_id.to_le_bytes());
            9
        }
        None => 1,
    };
    splice_envelope(out, start, &env[..used]);
}

/// Splices the v5 response envelope (flags byte, plus the trace id and
/// server-time echo when sampled) into the frame at `start`.
fn splice_response_envelope(
    out: &mut Vec<u8>,
    start: usize,
    version: u8,
    trace: Option<TraceEcho>,
) {
    if version < 5 {
        return;
    }
    let mut env = [0u8; MAX_TRACE_ENVELOPE];
    let used = match trace {
        Some(t) => {
            env[0] = TRACE_FLAG_SAMPLED;
            env[1..9].copy_from_slice(&t.trace_id.to_le_bytes());
            env[9..17].copy_from_slice(&t.server_ns.to_le_bytes());
            MAX_TRACE_ENVELOPE
        }
        None => 1,
    };
    splice_envelope(out, start, &env[..used]);
}

/// Strips the v5 request envelope off the payload head, validating the
/// flags byte (unassigned bits are malformed). Pre-v5 payloads pass
/// through untouched.
fn strip_request_envelope(
    version: u8,
    opcode: u8,
    payload: &[u8],
) -> Result<(Option<TraceContext>, &[u8]), WireError> {
    if version < 5 {
        return Ok((None, payload));
    }
    let mut p = Payload::new(
        payload,
        opcode,
        "v5 trace envelope: flags u8 [+ trace_id u64]",
    );
    let flags = p.take_u8()?;
    if flags & !TRACE_FLAG_SAMPLED != 0 {
        return Err(p.malformed());
    }
    let trace = if flags & TRACE_FLAG_SAMPLED != 0 {
        Some(TraceContext {
            trace_id: p.take_u64()?,
        })
    } else {
        None
    };
    Ok((trace, p.bytes))
}

/// Strips the v5 response envelope off the payload head (flags byte, plus
/// trace id and server-time echo when sampled).
fn strip_response_envelope(
    version: u8,
    opcode: u8,
    payload: &[u8],
) -> Result<(Option<TraceEcho>, &[u8]), WireError> {
    if version < 5 {
        return Ok((None, payload));
    }
    let mut p = Payload::new(
        payload,
        opcode,
        "v5 trace envelope: flags u8 [+ trace_id u64 + server_ns u64]",
    );
    let flags = p.take_u8()?;
    if flags & !TRACE_FLAG_SAMPLED != 0 {
        return Err(p.malformed());
    }
    let trace = if flags & TRACE_FLAG_SAMPLED != 0 {
        Some(TraceEcho {
            trace_id: p.take_u64()?,
            server_ns: p.take_u64()?,
        })
    } else {
        None
    };
    Ok((trace, p.bytes))
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

    /// Appends this request as one frame at [`WIRE_VERSION`].
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_versioned(out, WIRE_VERSION);
    }

    /// Appends this request as one frame stamped with `version`. The
    /// payload layout of the shared opcodes is identical across supported
    /// versions (v5 adds the one-byte trace envelope); encoding a v3-only
    /// request at v2 produces a frame peers reject as
    /// [`WireError::UnknownOpcode`] (useful for compatibility tests, never
    /// for production traffic).
    pub fn encode_versioned(&self, out: &mut Vec<u8>, version: u8) {
        self.encode_traced(out, version, None);
    }

    /// Appends this request as one frame stamped with `version`, carrying
    /// `trace` in the v5 envelope. At pre-v5 versions the trace is dropped
    /// (the frozen layouts have nowhere to put it), so a client can call
    /// this unconditionally with whatever version it negotiated.
    pub fn encode_traced(&self, out: &mut Vec<u8>, version: u8, trace: Option<TraceContext>) {
        let start = out.len();
        self.encode_body(out, version);
        splice_request_envelope(out, start, version, trace);
    }

    /// The per-opcode frame body, identical across versions; the v5 trace
    /// envelope is spliced in after the fact.
    fn encode_body(&self, out: &mut Vec<u8>, version: u8) {
        match self {
            Request::Insert { key, value } => encode_frame(out, version, OP_INSERT, |out| {
                put_u64(out, *key);
                put_u64(out, *value);
            }),
            Request::DeleteMin => encode_frame(out, version, OP_DELETE_MIN, |_| {}),
            Request::DeleteMinBatch { max } => {
                encode_frame(out, version, OP_DELETE_MIN_BATCH, |out| {
                    put_u32(out, *max);
                })
            }
            Request::ApproxLen => encode_frame(out, version, OP_APPROX_LEN, |_| {}),
            Request::Stats => encode_frame(out, version, OP_STATS, |_| {}),
            Request::Shutdown => encode_frame(out, version, OP_SHUTDOWN, |_| {}),
            Request::CreateQueue {
                name,
                backend,
                quota,
            } => encode_frame(out, version, OP_CREATE_QUEUE, |out| {
                put_name(out, name);
                out.push(backend.code());
                let (p1, p2, p3) = backend.params();
                put_u32(out, p1);
                put_u32(out, p2);
                put_u32(out, p3);
                put_u64(out, quota.max_inflight);
                put_u64(out, quota.max_sessions);
                put_u64(out, quota.ops_per_sec);
                put_u64(out, quota.burst);
                put_u64(out, quota.shed_key_bound);
            }),
            Request::DropQueue { name } => encode_frame(out, version, OP_DROP_QUEUE, |out| {
                put_name(out, name);
            }),
            Request::ListQueues => encode_frame(out, version, OP_LIST_QUEUES, |_| {}),
            Request::UseQueue { name } => encode_frame(out, version, OP_USE_QUEUE, |out| {
                put_name(out, name);
            }),
            Request::MetricsDump { include_events } => {
                encode_frame(out, version, OP_METRICS_DUMP, |out| {
                    out.push(*include_events as u8);
                })
            }
        }
    }

    /// Decodes one request frame from the front of `buf`, returning it and
    /// the number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Request, usize), WireError> {
        Self::decode_versioned(buf).map(|(request, _, used)| (request, used))
    }

    /// Decodes one request frame, also returning the version byte it
    /// carried — servers echo that version in the response so older peers
    /// receive frames they can decode.
    pub fn decode_versioned(buf: &[u8]) -> Result<(Request, u8, usize), WireError> {
        Self::decode_traced(buf).map(|(request, version, _, used)| (request, version, used))
    }

    /// Decodes one request frame, also returning the version byte and the
    /// v5 trace context (always `None` for pre-v5 frames).
    pub fn decode_traced(
        buf: &[u8],
    ) -> Result<(Request, u8, Option<TraceContext>, usize), WireError> {
        let (version, opcode, payload, total) = split_frame(buf)?;
        if version < request_opcode_min_version(opcode) {
            return Err(WireError::UnknownOpcode(opcode));
        }
        let (trace, payload) = strip_request_envelope(version, opcode, payload)?;
        let request = match opcode {
            OP_INSERT => {
                let mut p = Payload::new(payload, opcode, "key u64 + value u64");
                let key = p.take_u64()?;
                let value = p.take_u64()?;
                p.finish()?;
                Request::Insert { key, value }
            }
            OP_DELETE_MIN => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Request::DeleteMin
            }
            OP_DELETE_MIN_BATCH => {
                let mut p = Payload::new(payload, opcode, "max u32");
                let max = p.take_u32()?;
                p.finish()?;
                Request::DeleteMinBatch { max }
            }
            OP_APPROX_LEN => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Request::ApproxLen
            }
            OP_STATS => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Request::Stats
            }
            OP_SHUTDOWN => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Request::Shutdown
            }
            OP_CREATE_QUEUE => {
                let mut p = Payload::new(
                    payload,
                    opcode,
                    "name + backend code u8 + 3 u32 params + 5 u64 quota fields",
                );
                let name = p.take_name()?;
                let code = p.take_u8()?;
                let p1 = p.take_u32()?;
                let p2 = p.take_u32()?;
                let p3 = p.take_u32()?;
                let backend =
                    BackendSpec::from_wire(code, p1, p2, p3).ok_or_else(|| p.malformed())?;
                let quota = QuotaSpec {
                    max_inflight: p.take_u64()?,
                    max_sessions: p.take_u64()?,
                    ops_per_sec: p.take_u64()?,
                    burst: p.take_u64()?,
                    shed_key_bound: p.take_u64()?,
                };
                p.finish()?;
                Request::CreateQueue {
                    name,
                    backend,
                    quota,
                }
            }
            OP_DROP_QUEUE => {
                let mut p = Payload::new(payload, opcode, "name (u8 len + 1..=64 utf8 bytes)");
                let name = p.take_name()?;
                p.finish()?;
                Request::DropQueue { name }
            }
            OP_LIST_QUEUES => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Request::ListQueues
            }
            OP_USE_QUEUE => {
                let mut p = Payload::new(payload, opcode, "name (u8 len + 1..=64 utf8 bytes)");
                let name = p.take_name()?;
                p.finish()?;
                Request::UseQueue { name }
            }
            OP_METRICS_DUMP => {
                let mut p = Payload::new(payload, opcode, "include_events u8 (0 or 1)");
                let include_events = match p.take_u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(p.malformed()),
                };
                p.finish()?;
                Request::MetricsDump { include_events }
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        Ok((request, version, trace, total))
    }
}

impl Response {
    /// Appends this response as one frame at [`WIRE_VERSION`].
    ///
    /// # Panics
    ///
    /// Panics if a batch holds more than [`MAX_BATCH`] entries or a queue
    /// list more than [`MAX_QUEUES`] rows — servers bound both before
    /// building the response.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_versioned(out, WIRE_VERSION);
    }

    /// Appends this response as one frame stamped with `version`,
    /// downgrading the payload where the older layout requires it: a v2
    /// Stats reply carries the legacy 9-counter layout (no `refusals`, no
    /// per-queue rows) and v3 error codes collapse to
    /// [`ErrorCode::Unavailable`].
    ///
    /// # Panics
    ///
    /// As [`encode`](Response::encode).
    pub fn encode_versioned(&self, out: &mut Vec<u8>, version: u8) {
        self.encode_traced(out, version, None);
    }

    /// Appends this response as one frame stamped with `version`, carrying
    /// `trace` in the v5 envelope (dropped at pre-v5 versions, like the
    /// request side).
    ///
    /// # Panics
    ///
    /// As [`encode`](Response::encode).
    pub fn encode_traced(&self, out: &mut Vec<u8>, version: u8, trace: Option<TraceEcho>) {
        let start = out.len();
        self.encode_body(out, version);
        splice_response_envelope(out, start, version, trace);
    }

    /// The per-opcode frame body, identical across versions; the v5 trace
    /// envelope is spliced in after the fact.
    fn encode_body(&self, out: &mut Vec<u8>, version: u8) {
        match self {
            Response::Inserted => encode_frame(out, version, OP_INSERTED, |_| {}),
            Response::Entry { key, value } => encode_frame(out, version, OP_ENTRY, |out| {
                put_u64(out, *key);
                put_u64(out, *value);
            }),
            Response::Empty => encode_frame(out, version, OP_EMPTY, |_| {}),
            Response::Batch(entries) => {
                assert!(
                    entries.len() <= MAX_BATCH as usize,
                    "batch of {} exceeds the wire limit {MAX_BATCH}",
                    entries.len()
                );
                encode_frame(out, version, OP_BATCH, |out| {
                    put_u32(out, entries.len() as u32);
                    for (key, value) in entries {
                        put_u64(out, *key);
                        put_u64(out, *value);
                    }
                })
            }
            Response::Len(len) => encode_frame(out, version, OP_LEN, |out| put_u64(out, *len)),
            Response::Stats(stats) => encode_frame(out, version, OP_STATS_REPLY, |out| {
                put_u64(out, stats.sessions);
                put_u64(out, stats.totals.inserts);
                put_u64(out, stats.totals.removals);
                put_u64(out, stats.totals.failed_removals);
                put_u64(out, stats.totals.empty_polls);
                put_u64(out, stats.totals.contended_retries);
                if version >= 3 {
                    put_u64(out, stats.totals.refusals);
                }
                // Topology triple (positional; last of the v2 layout).
                put_u64(out, stats.active_lanes);
                put_u64(out, stats.max_lanes);
                put_u64(out, stats.resize_events);
                if version >= 4 {
                    put_u64(out, stats.resize_epoch);
                }
                if version >= 3 {
                    assert!(
                        stats.queues.len() <= MAX_QUEUES,
                        "stats with {} queue rows exceeds the wire limit {MAX_QUEUES}",
                        stats.queues.len()
                    );
                    put_u32(out, stats.queues.len() as u32);
                    for queue in &stats.queues {
                        put_name(out, &queue.name);
                        put_u64(out, queue.sessions);
                        put_u64(out, queue.totals.inserts);
                        put_u64(out, queue.totals.removals);
                        put_u64(out, queue.totals.failed_removals);
                        put_u64(out, queue.totals.empty_polls);
                        put_u64(out, queue.totals.contended_retries);
                        put_u64(out, queue.totals.refusals);
                        put_u64(out, queue.approx_len);
                    }
                }
            }),
            Response::ShuttingDown => encode_frame(out, version, OP_SHUTTING_DOWN, |_| {}),
            Response::QueueCreated => encode_frame(out, version, OP_QUEUE_CREATED, |_| {}),
            Response::QueueDropped => encode_frame(out, version, OP_QUEUE_DROPPED, |_| {}),
            Response::QueueList(rows) => {
                assert!(
                    rows.len() <= MAX_QUEUES,
                    "queue list of {} rows exceeds the wire limit {MAX_QUEUES}",
                    rows.len()
                );
                encode_frame(out, version, OP_QUEUE_LIST, |out| {
                    put_u32(out, rows.len() as u32);
                    for row in rows {
                        put_name(out, &row.name);
                        put_name(out, &row.backend);
                        out.push(row.instantiated as u8);
                        put_u64(out, row.sessions);
                        put_u64(out, row.approx_len);
                        put_u64(out, row.refusals);
                    }
                })
            }
            Response::Using => encode_frame(out, version, OP_USING, |_| {}),
            Response::MetricsText(text) => {
                // Bound the dump exactly like an error detail: truncate on a
                // char boundary so the frame never exceeds MAX_FRAME_LEN,
                // leaving headroom for the spliced trace envelope.
                let mut text = text.as_str();
                let cap = MAX_FRAME_LEN as usize - 2 - MAX_TRACE_ENVELOPE;
                if text.len() > cap {
                    let mut end = cap;
                    while !text.is_char_boundary(end) {
                        end -= 1;
                    }
                    text = &text[..end];
                }
                encode_frame(out, version, OP_METRICS_DUMP_REPLY, |out| {
                    out.extend_from_slice(text.as_bytes());
                })
            }
            Response::Error { code, detail } => {
                // Bound the detail so the frame stays within MAX_FRAME_LEN
                // whatever the caller passes (truncate on a char boundary),
                // leaving headroom for the spliced trace envelope.
                let mut detail = detail.as_str();
                let cap = MAX_FRAME_LEN as usize - 3 - MAX_TRACE_ENVELOPE;
                if detail.len() > cap {
                    let mut end = cap;
                    while !detail.is_char_boundary(end) {
                        end -= 1;
                    }
                    detail = &detail[..end];
                }
                encode_frame(out, version, OP_ERROR, |out| {
                    out.push(code.to_wire(version));
                    out.extend_from_slice(detail.as_bytes());
                })
            }
        }
    }

    /// Decodes one response frame from the front of `buf`, returning it and
    /// the number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Response, usize), WireError> {
        Self::decode_versioned(buf).map(|(response, _, used)| (response, used))
    }

    /// Decodes one response frame, also returning the version byte it
    /// carried. A v2 Stats frame decodes with `refusals == 0` and no
    /// per-queue rows — the legacy layout does not carry them.
    pub fn decode_versioned(buf: &[u8]) -> Result<(Response, u8, usize), WireError> {
        Self::decode_traced(buf).map(|(response, version, _, used)| (response, version, used))
    }

    /// Decodes one response frame, also returning the version byte and the
    /// v5 trace echo (always `None` for pre-v5 frames).
    pub fn decode_traced(
        buf: &[u8],
    ) -> Result<(Response, u8, Option<TraceEcho>, usize), WireError> {
        let (version, opcode, payload, total) = split_frame(buf)?;
        if version < response_opcode_min_version(opcode) {
            return Err(WireError::UnknownOpcode(opcode));
        }
        let (trace, payload) = strip_response_envelope(version, opcode, payload)?;
        let response = match opcode {
            OP_INSERTED => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Response::Inserted
            }
            OP_ENTRY => {
                let mut p = Payload::new(payload, opcode, "key u64 + value u64");
                let key = p.take_u64()?;
                let value = p.take_u64()?;
                p.finish()?;
                Response::Entry { key, value }
            }
            OP_EMPTY => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Response::Empty
            }
            OP_BATCH => {
                let mut p = Payload::new(payload, opcode, "count u32 + count entries");
                let count = p.take_u32()?;
                if count > MAX_BATCH {
                    return Err(p.malformed());
                }
                let mut entries = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let key = p.take_u64()?;
                    let value = p.take_u64()?;
                    entries.push((key, value));
                }
                p.finish()?;
                Response::Batch(entries)
            }
            OP_LEN => {
                let mut p = Payload::new(payload, opcode, "len u64");
                let len = p.take_u64()?;
                p.finish()?;
                Response::Len(len)
            }
            OP_STATS_REPLY => {
                let expected = match version {
                    4.. => "11 u64 counters + queue_count u32 + per-queue rows",
                    3 => "10 u64 counters + queue_count u32 + per-queue rows",
                    _ => "9 u64 counters",
                };
                let mut p = Payload::new(payload, opcode, expected);
                let sessions = p.take_u64()?;
                let inserts = p.take_u64()?;
                let removals = p.take_u64()?;
                let failed_removals = p.take_u64()?;
                let empty_polls = p.take_u64()?;
                let contended_retries = p.take_u64()?;
                let refusals = if version >= 3 { p.take_u64()? } else { 0 };
                let active_lanes = p.take_u64()?;
                let max_lanes = p.take_u64()?;
                let resize_events = p.take_u64()?;
                let resize_epoch = if version >= 4 { p.take_u64()? } else { 0 };
                let mut queues = Vec::new();
                if version >= 3 {
                    let count = p.take_u32()?;
                    if count as usize > MAX_QUEUES {
                        return Err(p.malformed());
                    }
                    queues.reserve(count as usize);
                    for _ in 0..count {
                        let name = p.take_name()?;
                        let sessions = p.take_u64()?;
                        let totals = HandleStats {
                            inserts: p.take_u64()?,
                            removals: p.take_u64()?,
                            failed_removals: p.take_u64()?,
                            empty_polls: p.take_u64()?,
                            contended_retries: p.take_u64()?,
                            refusals: p.take_u64()?,
                        };
                        let approx_len = p.take_u64()?;
                        queues.push(QueueStats {
                            name,
                            sessions,
                            totals,
                            approx_len,
                        });
                    }
                }
                p.finish()?;
                Response::Stats(ServiceStats {
                    sessions,
                    totals: HandleStats {
                        inserts,
                        removals,
                        failed_removals,
                        empty_polls,
                        contended_retries,
                        refusals,
                    },
                    active_lanes,
                    max_lanes,
                    resize_events,
                    resize_epoch,
                    queues,
                })
            }
            OP_SHUTTING_DOWN => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Response::ShuttingDown
            }
            OP_QUEUE_CREATED => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Response::QueueCreated
            }
            OP_QUEUE_DROPPED => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Response::QueueDropped
            }
            OP_QUEUE_LIST => {
                let mut p = Payload::new(payload, opcode, "count u32 + count queue rows");
                let count = p.take_u32()?;
                if count as usize > MAX_QUEUES {
                    return Err(p.malformed());
                }
                let mut rows = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let name = p.take_name()?;
                    let backend = p.take_name()?;
                    let instantiated = match p.take_u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(p.malformed()),
                    };
                    rows.push(QueueListRow {
                        name,
                        backend,
                        instantiated,
                        sessions: p.take_u64()?,
                        approx_len: p.take_u64()?,
                        refusals: p.take_u64()?,
                    });
                }
                p.finish()?;
                Response::QueueList(rows)
            }
            OP_USING => {
                Payload::new(payload, opcode, "empty payload").finish()?;
                Response::Using
            }
            OP_METRICS_DUMP_REPLY => {
                Response::MetricsText(String::from_utf8_lossy(payload).into_owned())
            }
            OP_ERROR => {
                let mut p = Payload::new(payload, opcode, "code u8 + utf8 detail");
                let raw = p.take_u8()?;
                let code = ErrorCode::from_u8(raw).ok_or_else(|| p.malformed())?;
                let detail = String::from_utf8_lossy(p.bytes).into_owned();
                Response::Error { code, detail }
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        Ok((response, version, trace, total))
    }
}

/// Encodes a `Batch` response frame from borrowed entries at `version` —
/// byte-identical to `Response::Batch(entries.to_vec())
/// .encode_traced(out, version, trace)` without giving up the caller's
/// buffer, so a server can reuse one entries vector across requests.
///
/// # Panics
///
/// Panics if `entries` holds more than [`MAX_BATCH`] elements (servers
/// clamp every batch below that).
pub fn encode_batch_response(
    out: &mut Vec<u8>,
    entries: &[(Key, u64)],
    version: u8,
    trace: Option<TraceEcho>,
) {
    assert!(
        entries.len() <= MAX_BATCH as usize,
        "batch of {} exceeds the wire limit {MAX_BATCH}",
        entries.len()
    );
    let start = out.len();
    encode_frame(out, version, OP_BATCH, |out| {
        put_u32(out, entries.len() as u32);
        for (key, value) in entries {
            put_u64(out, *key);
            put_u64(out, *value);
        }
    });
    splice_response_envelope(out, start, version, trace);
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
    let len = u32::from_le_bytes(header);
    if !(2..=MAX_FRAME_LEN).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::BadLength(len),
        ));
    }
    scratch.clear();
    scratch.extend_from_slice(&header);
    scratch.resize(4 + len as usize, 0);
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

/// Encodes and writes one response frame at `version` (no flush — the
/// caller owns the credit-window flush policy).
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    scratch: &mut Vec<u8>,
    version: u8,
) -> io::Result<()> {
    scratch.clear();
    response.encode_versioned(scratch, version);
    writer.write_all(scratch)
}

/// Encodes and writes one request frame at [`WIRE_VERSION`] (no flush).
pub fn write_request<W: Write>(
    writer: &mut W,
    request: &Request,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    scratch.clear();
    request.encode(scratch);
    writer.write_all(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_request(r: Request) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (decoded, version, used) = Request::decode_versioned(&buf).expect("round-trip");
        assert_eq!(decoded, r);
        assert_eq!(version, WIRE_VERSION);
        assert_eq!(used, buf.len());
    }

    fn roundtrip_response(r: Response) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (decoded, version, used) = Response::decode_versioned(&buf).expect("round-trip");
        assert_eq!(decoded, r);
        assert_eq!(version, WIRE_VERSION);
        assert_eq!(used, buf.len());
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
                    max_sessions: 2,
                    ops_per_sec: 3,
                    burst: 4,
                    shed_key_bound: 5,
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

    /// A fully-populated v3 Stats response (all counters distinct so a
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
            active_lanes: 0x0707,
            max_lanes: 0x0808,
            resize_events: 0x0909,
            resize_epoch: 0x1515,
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

    /// Every truncation of a v4 Stats reply — including cuts landing inside
    /// the per-queue rows — must report `Truncated` (the stream-reader
    /// "wait for more" signal), never decode a partial aggregate and never
    /// classify the prefix as garbage.
    #[test]
    fn stats_reply_truncations_are_incomplete_at_every_offset() {
        let stats = full_stats();
        let mut buf = Vec::new();
        Response::Stats(stats.clone()).encode(&mut buf);
        // Header (4 len + 1 version + 1 opcode) + 1 envelope flags byte +
        // 11 × u64 + queue count + one row per queue (name field + 8 × u64
        // each).
        let expected_len = 6
            + 1
            + 11 * 8
            + 4
            + stats
                .queues
                .iter()
                .map(|q| 1 + q.name.len() + 8 * 8)
                .sum::<usize>();
        assert_eq!(buf.len(), expected_len, "v5 Stats layout drifted");
        for cut in 0..buf.len() {
            let err = Response::decode(&buf[..cut]).expect_err("truncation must fail");
            assert!(
                err.is_incomplete(),
                "cut at {cut}/{} should be Truncated, got {err:?}",
                buf.len()
            );
        }
    }

    /// Every truncation of the new v3 frames is `Truncated`, and a length
    /// prefix that excludes trailing fields is malformed — the layout check
    /// is exact in both directions for every new opcode.
    #[test]
    fn v3_frame_truncations_are_incomplete_at_every_offset() {
        let frames: Vec<Vec<u8>> = {
            let mut encoded = Vec::new();
            let mut buf = Vec::new();
            Request::CreateQueue {
                name: "tenant/a".to_string(),
                backend: BackendSpec::MultiQueue { lanes: 16, d: 4 },
                quota: QuotaSpec::unlimited().with_rate(1000, 50),
            }
            .encode(&mut buf);
            encoded.push(std::mem::take(&mut buf));
            Request::DropQueue {
                name: "tenant/a".to_string(),
            }
            .encode(&mut buf);
            encoded.push(std::mem::take(&mut buf));
            Request::ListQueues.encode(&mut buf);
            encoded.push(std::mem::take(&mut buf));
            Request::UseQueue {
                name: "q".to_string(),
            }
            .encode(&mut buf);
            encoded.push(std::mem::take(&mut buf));
            Response::QueueCreated.encode(&mut buf);
            encoded.push(std::mem::take(&mut buf));
            Response::QueueList(vec![QueueListRow {
                name: "default".to_string(),
                backend: "coarse-heap".to_string(),
                instantiated: true,
                sessions: 1,
                approx_len: 2,
                refusals: 3,
            }])
            .encode(&mut buf);
            encoded.push(std::mem::take(&mut buf));
            Response::Using.encode(&mut buf);
            encoded.push(std::mem::take(&mut buf));
            encoded
        };
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

    /// A frame whose *length prefix* already excludes required fields (e.g.
    /// the v1 7-counter Stats layout, or a v2-sized Stats arriving in a v3
    /// frame) is a malformed payload, not a silent short decode.
    #[test]
    fn undersized_stats_payloads_are_rejected_as_malformed() {
        for counters in [6u64, 9, 10, 11] {
            // 6 = v1-ish, 9 = the v2 layout inside a v5 frame, 10 = the v3
            // counter set (missing resize_epoch + queue count), 11 =
            // missing the queue count.
            let mut buf = Vec::new();
            encode_frame(&mut buf, WIRE_VERSION, OP_STATS_REPLY, |out| {
                out.push(0); // v5 envelope: no trace
                for counter in 0..counters {
                    put_u64(out, counter);
                }
            });
            assert!(
                matches!(
                    Response::decode(&buf),
                    Err(WireError::MalformedPayload {
                        opcode: OP_STATS_REPLY,
                        ..
                    })
                ),
                "{counters}-counter v5 Stats payload must be malformed"
            );
        }
        // A v3 frame sized for v4 (11 counters) or missing its queue count
        // (10 counters, no u32) is malformed too.
        for counters in [9u64, 11] {
            let mut buf = Vec::new();
            encode_frame(&mut buf, 3, OP_STATS_REPLY, |out| {
                for counter in 0..counters {
                    put_u64(out, counter);
                }
            });
            assert!(
                matches!(
                    Response::decode(&buf),
                    Err(WireError::MalformedPayload { .. })
                ),
                "{counters}-counter v3 Stats payload must be malformed"
            );
        }
        // The same exactness holds for v2 frames: 6 or 10 counters do not
        // fit the 9-counter layout.
        for counters in [6u64, 10] {
            let mut buf = Vec::new();
            encode_frame(&mut buf, 2, OP_STATS_REPLY, |out| {
                for counter in 0..counters {
                    put_u64(out, counter);
                }
            });
            assert!(
                matches!(
                    Response::decode(&buf),
                    Err(WireError::MalformedPayload { .. })
                ),
                "{counters}-counter v2 Stats payload must be malformed"
            );
        }
    }

    /// v2 frames carry the legacy layouts: a v2-encoded Stats reply is the
    /// 9-counter payload (no refusals, no rows) and decodes back with those
    /// fields defaulted; the shared opcodes round-trip unchanged.
    #[test]
    fn v2_stats_layout_round_trips_without_v3_fields() {
        let stats = full_stats();
        let mut buf = Vec::new();
        Response::Stats(stats.clone()).encode_versioned(&mut buf, 2);
        assert_eq!(buf.len(), 6 + 9 * 8, "v2 Stats layout is 9 u64 counters");
        assert_eq!(buf[4], 2, "version byte echoes the requested version");
        let (decoded, version, used) = Response::decode_versioned(&buf).unwrap();
        assert_eq!(version, 2);
        assert_eq!(used, buf.len());
        match decoded {
            Response::Stats(v2) => {
                assert_eq!(v2.sessions, stats.sessions);
                assert_eq!(v2.totals.inserts, stats.totals.inserts);
                assert_eq!(v2.totals.contended_retries, stats.totals.contended_retries);
                assert_eq!(v2.active_lanes, stats.active_lanes);
                assert_eq!(v2.max_lanes, stats.max_lanes);
                assert_eq!(v2.resize_events, stats.resize_events);
                assert_eq!(v2.resize_epoch, 0, "v2 carries no resize epoch");
                assert_eq!(v2.totals.refusals, 0, "v2 carries no refusals");
                assert!(v2.queues.is_empty(), "v2 carries no per-queue rows");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Every truncation of the v2 layout stays incomplete too.
        for cut in 0..buf.len() {
            let err = Response::decode(&buf[..cut]).expect_err("truncation must fail");
            assert!(err.is_incomplete(), "v2 cut at {cut}: {err:?}");
        }
    }

    /// A v3-encoded Stats reply carries the 10-counter layout (no
    /// `resize_epoch`) and decodes back with that field defaulted, rows
    /// intact — the downgrade path v3 peers ride on a v4 server.
    #[test]
    fn v3_stats_layout_round_trips_without_the_resize_epoch() {
        let stats = full_stats();
        let mut buf = Vec::new();
        Response::Stats(stats.clone()).encode_versioned(&mut buf, 3);
        let row_bytes: usize = stats.queues.iter().map(|q| 1 + q.name.len() + 8 * 8).sum();
        assert_eq!(
            buf.len(),
            6 + 10 * 8 + 4 + row_bytes,
            "v3 Stats layout is 10 u64 counters + rows"
        );
        let (decoded, version, used) = Response::decode_versioned(&buf).unwrap();
        assert_eq!(version, 3);
        assert_eq!(used, buf.len());
        match decoded {
            Response::Stats(v3) => {
                assert_eq!(v3.resize_epoch, 0, "v3 carries no resize epoch");
                assert_eq!(v3.resize_events, stats.resize_events);
                assert_eq!(v3.queues, stats.queues, "v3 keeps the per-queue rows");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        for cut in 0..buf.len() {
            let err = Response::decode(&buf[..cut]).expect_err("truncation must fail");
            assert!(err.is_incomplete(), "v3 cut at {cut}: {err:?}");
        }
    }

    /// v4-only opcodes inside a v2 or v3 frame are unknown opcodes, and
    /// every truncation of the new frames is incomplete.
    #[test]
    fn pre_v4_frames_reject_v4_opcodes() {
        for version in [2u8, 3] {
            let mut buf = Vec::new();
            Request::MetricsDump {
                include_events: true,
            }
            .encode_versioned(&mut buf, version);
            assert!(
                matches!(Request::decode(&buf), Err(WireError::UnknownOpcode(_))),
                "MetricsDump must be unknown at v{version}"
            );
            let mut buf = Vec::new();
            Response::MetricsText("x".to_string()).encode_versioned(&mut buf, version);
            assert!(
                matches!(Response::decode(&buf), Err(WireError::UnknownOpcode(_))),
                "MetricsText must be unknown at v{version}"
            );
        }
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut buf = Vec::new();
        Request::MetricsDump {
            include_events: false,
        }
        .encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
        Response::MetricsText("mq_ops_total 7\n".to_string()).encode(&mut buf);
        frames.push(std::mem::take(&mut buf));
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
        // The include_events flag is a strict bool.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_METRICS_DUMP, |out| {
            out.push(0); // v5 envelope: no trace
            out.push(2);
        });
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
    }

    /// v3-only opcodes inside a v2 frame are unknown opcodes: an old peer
    /// never assigned them, so a new peer must not act on them at the old
    /// version either.
    #[test]
    fn v2_frames_reject_v3_opcodes() {
        let requests = [
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
        ];
        for request in requests {
            let mut buf = Vec::new();
            request.encode_versioned(&mut buf, 2);
            assert!(
                matches!(Request::decode(&buf), Err(WireError::UnknownOpcode(_))),
                "{request:?} must be unknown at v2"
            );
        }
        let responses = [
            Response::QueueCreated,
            Response::QueueDropped,
            Response::QueueList(vec![]),
            Response::Using,
        ];
        for response in responses {
            let mut buf = Vec::new();
            response.encode_versioned(&mut buf, 2);
            assert!(
                matches!(Response::decode(&buf), Err(WireError::UnknownOpcode(_))),
                "{response:?} must be unknown at v2"
            );
        }
    }

    /// Encoding a v3 error code for a v2 peer collapses it to
    /// `Unavailable`; the legacy codes pass through untouched.
    #[test]
    fn v2_error_frames_map_v3_codes_to_unavailable() {
        for (code, expect) in [
            (ErrorCode::ReservedKey, ErrorCode::ReservedKey),
            (ErrorCode::Protocol, ErrorCode::Protocol),
            (ErrorCode::Unavailable, ErrorCode::Unavailable),
            (ErrorCode::QuotaExceeded, ErrorCode::Unavailable),
            (ErrorCode::NoSuchQueue, ErrorCode::Unavailable),
            (ErrorCode::QueueExists, ErrorCode::Unavailable),
            (ErrorCode::QueueDropped, ErrorCode::Unavailable),
            (ErrorCode::RegistryFull, ErrorCode::Unavailable),
            (ErrorCode::BadQueueName, ErrorCode::Unavailable),
        ] {
            let mut buf = Vec::new();
            Response::Error {
                code,
                detail: "quota".to_string(),
            }
            .encode_versioned(&mut buf, 2);
            match Response::decode(&buf).unwrap().0 {
                Response::Error { code: decoded, .. } => {
                    assert_eq!(decoded, expect, "v2 mapping of {code:?}")
                }
                other => panic!("expected an error frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn wire_names_are_validated_on_decode() {
        // Zero-length name (the leading 0 is the v5 no-trace envelope).
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_USE_QUEUE, |out| {
            out.push(0);
            out.push(0);
        });
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Length byte beyond MAX_NAME_LEN.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_USE_QUEUE, |out| {
            out.push(0);
            out.push((MAX_NAME_LEN + 1) as u8);
            out.extend_from_slice(&[b'a'; MAX_NAME_LEN + 1]);
        });
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Length byte promising more than the payload carries.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_DROP_QUEUE, |out| {
            out.push(0);
            out.push(10);
            out.extend_from_slice(b"abc");
        });
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Invalid UTF-8 in the name bytes.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_USE_QUEUE, |out| {
            out.push(0);
            out.push(2);
            out.extend_from_slice(&[0xFF, 0xFE]);
        });
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Trailing bytes after a well-formed name.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_USE_QUEUE, |out| {
            out.push(0);
            out.push(1);
            out.push(b'q');
            out.push(0);
        });
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
    }

    #[test]
    fn unknown_backend_codes_and_oversized_row_counts_are_malformed() {
        // CreateQueue with an unassigned backend code (1 is the retired
        // elastic family).
        for code in [1u8, 99] {
            let mut buf = Vec::new();
            encode_frame(&mut buf, WIRE_VERSION, OP_CREATE_QUEUE, |out| {
                out.push(0); // v5 envelope: no trace
                out.push(1);
                out.push(b'q');
                out.push(code);
                for _ in 0..3 {
                    put_u32(out, 0);
                }
                for _ in 0..5 {
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
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_QUEUE_LIST, |out| {
            out.push(0); // v5 envelope: no trace
            put_u32(out, (MAX_QUEUES + 1) as u32);
        });
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Same bound on the Stats per-queue row count.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_STATS_REPLY, |out| {
            out.push(0); // v5 envelope: no trace
            for _ in 0..11 {
                put_u64(out, 0);
            }
            put_u32(out, (MAX_QUEUES + 1) as u32);
        });
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // A QueueList row with an instantiated byte that is neither 0 nor 1.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_QUEUE_LIST, |out| {
            out.push(0); // v5 envelope: no trace
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
    /// version skew, payload-layout violations, every-offset truncations of
    /// the widest frames. Each line is `hex-bytes [# comment]`; both
    /// decoders must stay total over every entry, and valid frames must
    /// consume exactly what they claim.
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
        let mut buf = Vec::new();
        Request::DeleteMin.encode(&mut buf);
        let mut wrong_version = buf.clone();
        wrong_version[4] = 9;
        assert_eq!(
            Request::decode(&wrong_version),
            Err(WireError::UnknownVersion(9))
        );
        // v1 predates MIN_WIRE_VERSION and is refused.
        let mut v1 = buf.clone();
        v1[4] = 1;
        assert_eq!(Request::decode(&v1), Err(WireError::UnknownVersion(1)));
        let mut wrong_opcode = buf.clone();
        wrong_opcode[5] = 0x7E;
        assert_eq!(
            Request::decode(&wrong_opcode),
            Err(WireError::UnknownOpcode(0x7E))
        );
        // A response opcode is not a request.
        let mut response = Vec::new();
        Response::Empty.encode(&mut response);
        assert_eq!(
            Request::decode(&response),
            Err(WireError::UnknownOpcode(OP_EMPTY))
        );
    }

    #[test]
    fn decode_versioned_reports_the_frame_version() {
        for version in [MIN_WIRE_VERSION, WIRE_VERSION] {
            let mut buf = Vec::new();
            Request::DeleteMin.encode_versioned(&mut buf, version);
            let (_, decoded_version, _) = Request::decode_versioned(&buf).unwrap();
            assert_eq!(decoded_version, version);
            let mut buf = Vec::new();
            Response::Empty.encode_versioned(&mut buf, version);
            let (_, decoded_version, _) = Response::decode_versioned(&buf).unwrap();
            assert_eq!(decoded_version, version);
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_without_allocating() {
        // Length 0 and 1 cannot hold version + opcode.
        for len in [0u32, 1] {
            let mut buf = len.to_le_bytes().to_vec();
            buf.extend_from_slice(&[0; 8]);
            assert_eq!(Request::decode(&buf), Err(WireError::BadLength(len)));
        }
        // A huge length prefix must fail fast, not wait for 4 GiB.
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.push(WIRE_VERSION);
        buf.push(OP_DELETE_MIN);
        assert_eq!(Request::decode(&buf), Err(WireError::BadLength(u32::MAX)));
        // One past the ceiling is rejected the same way.
        let mut buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        buf.push(WIRE_VERSION);
        buf.push(OP_DELETE_MIN);
        assert_eq!(
            Request::decode(&buf),
            Err(WireError::BadLength(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn payload_layout_is_enforced_exactly() {
        // Insert with a short payload: layout needs 16 body bytes, got 8
        // (the leading 0 is the v5 no-trace envelope).
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_INSERT, |out| {
            out.push(0);
            out.extend_from_slice(&[0; 8])
        });
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload {
                opcode: OP_INSERT,
                ..
            })
        ));
        // DeleteMin with trailing bytes.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_DELETE_MIN, |out| {
            out.push(0);
            out.push(0);
        });
        assert!(matches!(
            Request::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Batch response whose count promises more entries than the frame
        // carries.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_BATCH, |out| {
            out.push(0);
            put_u32(out, 3)
        });
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        // Batch count beyond the wire limit is refused before allocation.
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_BATCH, |out| {
            out.push(0);
            put_u32(out, MAX_BATCH + 1)
        });
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
    }

    #[test]
    fn oversized_error_detail_is_truncated_to_fit() {
        let huge = "é".repeat(MAX_FRAME_LEN as usize); // 2 bytes per char
        let mut buf = Vec::new();
        Response::Error {
            code: ErrorCode::Protocol,
            detail: huge,
        }
        .encode(&mut buf);
        let (decoded, used) = Response::decode(&buf).expect("truncated detail still decodes");
        assert_eq!(used, buf.len());
        match decoded {
            Response::Error { code, detail } => {
                assert_eq!(code, ErrorCode::Protocol);
                assert!(!detail.is_empty());
            }
            other => panic!("expected an error frame, got {other:?}"),
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
            for version in [MIN_WIRE_VERSION, WIRE_VERSION] {
                for trace in traces {
                    let mut borrowed = Vec::new();
                    encode_batch_response(&mut borrowed, &entries, version, trace);
                    let mut owned = Vec::new();
                    Response::Batch(entries.clone()).encode_traced(&mut owned, version, trace);
                    assert_eq!(borrowed, owned, "the two encoders must stay in lockstep");
                }
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

    /// Traced v5 frames round-trip the envelope in both directions, and
    /// untraced v5 frames decode with no trace at the cost of one byte.
    #[test]
    fn v5_traced_frames_round_trip_the_envelope() {
        let trace = TraceContext {
            trace_id: 0x0123_4567_89AB_CDEF,
        };
        let mut buf = Vec::new();
        Request::Insert { key: 7, value: 70 }.encode_traced(&mut buf, WIRE_VERSION, Some(trace));
        let (request, version, decoded_trace, used) =
            Request::decode_traced(&buf).expect("traced request decodes");
        assert_eq!(request, Request::Insert { key: 7, value: 70 });
        assert_eq!(version, WIRE_VERSION);
        assert_eq!(decoded_trace, Some(trace));
        assert_eq!(used, buf.len());

        let echo = TraceEcho {
            trace_id: trace.trace_id,
            server_ns: 12_345,
        };
        let mut buf = Vec::new();
        Response::Entry { key: 7, value: 70 }.encode_traced(&mut buf, WIRE_VERSION, Some(echo));
        let (response, version, decoded_echo, used) =
            Response::decode_traced(&buf).expect("traced response decodes");
        assert_eq!(response, Response::Entry { key: 7, value: 70 });
        assert_eq!(version, WIRE_VERSION);
        assert_eq!(decoded_echo, Some(echo));
        assert_eq!(used, buf.len());

        // Untraced v5 frames carry the one-byte envelope and decode to None.
        let mut plain = Vec::new();
        Request::DeleteMin.encode(&mut plain);
        assert_eq!(plain.len(), 6 + 1, "v5 DeleteMin is header + flags byte");
        let (_, _, no_trace, _) = Request::decode_traced(&plain).unwrap();
        assert_eq!(no_trace, None);
        // The traced variant costs exactly the 8-byte trace id more.
        let mut traced = Vec::new();
        Request::DeleteMin.encode_traced(&mut traced, WIRE_VERSION, Some(trace));
        assert_eq!(traced.len(), plain.len() + 8);
    }

    /// Every truncation of a traced v5 frame — cuts landing inside the
    /// envelope included — reports `Truncated`, never a partial decode and
    /// never garbage.
    #[test]
    fn v5_traced_frame_truncations_are_incomplete_at_every_offset() {
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
        .encode_traced(&mut buf, WIRE_VERSION, trace);
        frames.push(std::mem::take(&mut buf));
        Request::MetricsDump {
            include_events: true,
        }
        .encode_traced(&mut buf, WIRE_VERSION, trace);
        frames.push(std::mem::take(&mut buf));
        Response::Entry {
            key: 0xCC,
            value: 0xDD,
        }
        .encode_traced(&mut buf, WIRE_VERSION, echo);
        frames.push(std::mem::take(&mut buf));
        Response::Batch(vec![(1, 10), (2, 20)]).encode_traced(&mut buf, WIRE_VERSION, echo);
        frames.push(std::mem::take(&mut buf));
        Response::Stats(full_stats()).encode_traced(&mut buf, WIRE_VERSION, echo);
        frames.push(std::mem::take(&mut buf));
        for frame in frames {
            for cut in 0..frame.len() {
                let request_err = Request::decode_traced(&frame[..cut]).err();
                let response_err = Response::decode_traced(&frame[..cut]).err();
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

    /// Unassigned trace-flag bits are malformed in both directions — a v5
    /// peer never silently skips envelope fields it does not understand.
    #[test]
    fn garbage_trace_flags_are_malformed() {
        for flags in [0x02u8, 0x03, 0x80, 0xFE, 0xFF] {
            let mut buf = Vec::new();
            encode_frame(&mut buf, WIRE_VERSION, OP_DELETE_MIN, |out| {
                out.push(flags);
                // Enough bytes to satisfy any field the flags could promise.
                out.extend_from_slice(&[0; 16]);
            });
            assert!(
                matches!(
                    Request::decode_traced(&buf),
                    Err(WireError::MalformedPayload { .. })
                ),
                "request flags {flags:#04x} must be malformed"
            );
            let mut buf = Vec::new();
            encode_frame(&mut buf, WIRE_VERSION, OP_EMPTY, |out| {
                out.push(flags);
                out.extend_from_slice(&[0; 16]);
            });
            assert!(
                matches!(
                    Response::decode_traced(&buf),
                    Err(WireError::MalformedPayload { .. })
                ),
                "response flags {flags:#04x} must be malformed"
            );
        }
        // A sampled envelope whose promised trace fields are missing is
        // malformed too (the length prefix said the frame was complete).
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_DELETE_MIN, |out| {
            out.push(TRACE_FLAG_SAMPLED);
            out.extend_from_slice(&[0; 4]); // trace_id needs 8
        });
        assert!(matches!(
            Request::decode_traced(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
        let mut buf = Vec::new();
        encode_frame(&mut buf, WIRE_VERSION, OP_EMPTY, |out| {
            out.push(TRACE_FLAG_SAMPLED);
            out.extend_from_slice(&[0; 8]); // trace_id + server_ns need 16
        });
        assert!(matches!(
            Response::decode_traced(&buf),
            Err(WireError::MalformedPayload { .. })
        ));
    }

    /// v4 frames carry no envelope: their byte layout is unchanged from the
    /// previous release, a trace handed to a v4 encoder is dropped, and
    /// decode reports no trace — the negotiation story for a v4 client on a
    /// v5 server (and vice versa).
    #[test]
    fn v4_frames_are_untouched_by_the_trace_envelope() {
        let trace = Some(TraceContext { trace_id: 99 });
        let mut v4_plain = Vec::new();
        Request::DeleteMin.encode_versioned(&mut v4_plain, 4);
        assert_eq!(v4_plain.len(), 6, "the v4 layout has no envelope byte");
        let mut v4_traced = Vec::new();
        Request::DeleteMin.encode_traced(&mut v4_traced, 4, trace);
        assert_eq!(v4_plain, v4_traced, "pre-v5 encoders drop the trace");
        let (request, version, no_trace, _) = Request::decode_traced(&v4_plain).unwrap();
        assert_eq!(request, Request::DeleteMin);
        assert_eq!(version, 4);
        assert_eq!(no_trace, None);
        // The response a server would send back at the echoed version 4 is
        // envelope-free as well, even if the server tries to attach timing.
        let echo = Some(TraceEcho {
            trace_id: 99,
            server_ns: 1,
        });
        let mut v4_response = Vec::new();
        Response::Empty.encode_traced(&mut v4_response, 4, echo);
        assert_eq!(v4_response.len(), 6);
        let (response, version, no_echo, _) = Response::decode_traced(&v4_response).unwrap();
        assert_eq!(response, Response::Empty);
        assert_eq!(version, 4);
        assert_eq!(no_echo, None);
        // A v4 MetricsDump (the newest v4 opcode) still decodes at v4.
        let mut buf = Vec::new();
        Request::MetricsDump {
            include_events: true,
        }
        .encode_versioned(&mut buf, 4);
        let (decoded, version, _) = Request::decode_versioned(&buf).unwrap();
        assert_eq!(
            decoded,
            Request::MetricsDump {
                include_events: true
            }
        );
        assert_eq!(version, 4);
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
                        max / 3,
                    )
                    .expect("assigned backend code"),
                    quota: QuotaSpec {
                        max_inflight: key,
                        max_sessions: value,
                        ops_per_sec: key ^ value,
                        burst: key.wrapping_add(value),
                        shed_key_bound: key.wrapping_mul(3),
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
                    active_lanes: n / 6,
                    max_lanes: n / 6 + 8,
                    resize_events: n / 7,
                    resize_epoch: n / 9,
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
                .encode_traced(&mut buf, WIRE_VERSION, Some(TraceContext { trace_id }));
            let (_, _, trace, used) = Request::decode_traced(&buf).expect("traced requests decode");
            prop_assert_eq!(trace, Some(TraceContext { trace_id }));
            prop_assert_eq!(used, buf.len());
            let cut = (cut_seed % buf.len() as u64) as usize;
            let err = Request::decode_traced(&buf[..cut]).expect_err("prefix cannot be a whole frame");
            prop_assert!(err.is_incomplete(), "cut {cut}: {err:?}");

            let mut buf = Vec::new();
            Response::Entry { key, value: key }
                .encode_traced(&mut buf, WIRE_VERSION, Some(TraceEcho { trace_id, server_ns }));
            let (_, _, echo, used) = Response::decode_traced(&buf).expect("traced responses decode");
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
                backend: BackendSpec::from_wire(BACKEND_CODES[(seed % 4) as usize], 8, 2, 1).unwrap(),
                quota: QuotaSpec::unlimited().with_max_inflight(seed),
            }
            .encode(&mut buf);
            let cut = (cut_seed % buf.len() as u64) as usize;
            let err = Request::decode(&buf[..cut]).expect_err("prefix cannot be a whole frame");
            prop_assert!(err.is_incomplete(), "cut {cut}: {err:?}");
        }
    }
}
