//! `choice-wire`: the (1 + β) MultiQueue as a network service.
//!
//! Everything below `crates/service` turns the in-process session API into
//! a TCP front door, in three layers (`std::net` only — no async runtime):
//!
//! * [`protocol`] — a length-prefixed binary wire protocol with one
//!   version and one fixed frame header (length, version, opcode, trace
//!   flags): `Insert` / `DeleteMin` / `DeleteMinBatch(n)` / `ApproxLen` /
//!   `Stats` / `Shutdown` frames plus the queue-lifecycle ops
//!   `CreateQueue` / `DropQueue` / `ListQueues` / `UseQueue` and the
//!   observability op `MetricsDump`, with total, panic-free decoding and
//!   explicit error types for truncated and malformed bytes. A frame
//!   stamped with any other version is a protocol error.
//! * [`server`] — a multi-threaded server fronting a
//!   [`QueueRegistry`] of **named queues**:
//!   each accepted connection binds a queue (the `"default"` queue until it
//!   issues `UseQueue`) and registers its own session handle (deterministic
//!   per-connection RNG falls out of the session API). Any
//!   [`DynSharedPq`](choice_pq::DynSharedPq) backend serves, per-queue
//!   [`QuotaSpec`] quotas shed work as typed
//!   `QuotaExceeded` refusals, a credit window bounds response buffering,
//!   and a `Stats` op aggregates
//!   [`HandleStats`](choice_pq::HandleStats) across sessions with a
//!   per-queue breakdown. Every server carries a [`choice_obs::ObsHub`]:
//!   admission refusals and in-flight depth surface as registry metrics,
//!   sessions and panics land in the flight recorder (a panicking handler
//!   dumps the ring and kills only its own connection), and `MetricsDump`
//!   serves the whole hub as Prometheus-style exposition text.
//! * [`client`] — a blocking, pipelined client: synchronous one-round-trip
//!   methods plus a windowed [`submit`](client::PqClient::submit) path that
//!   keeps up to a credit window of requests in flight and hands back
//!   per-request round-trip times.
//!
//! What does a *relaxed* queue mean to a remote caller? Exactly what it
//! means in process: `DeleteMin` returns a small-keyed element, not
//! necessarily the minimum, and `ApproxLen` is a hint. The network adds
//! nothing new to reason about — a remote pop was already concurrent with
//! every other session's operations before it left the client — which is
//! precisely why a relaxed structure is the natural thing to put behind a
//! shared service: it keeps scaling where an exact queue would serialise
//! every client on the global minimum.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use choice_pq::{DynSharedPq, MultiQueue, MultiQueueConfig};
//! use choice_wire::{PqClient, PqServer, ServerConfig};
//!
//! let queue: Arc<dyn DynSharedPq<u64>> =
//!     Arc::new(MultiQueue::new(MultiQueueConfig::for_threads(2).with_seed(7)));
//! let server = PqServer::spawn(queue, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = PqClient::connect(server.local_addr()).unwrap();
//! client.insert(10, 100).unwrap();
//! client.insert(5, 50).unwrap();
//! let (key, value) = client.delete_min().unwrap().expect("non-empty");
//! assert!(key == 5 || key == 10);
//! assert_eq!(value, key * 10);
//!
//! client.shutdown_server().unwrap();
//! let stats = server.join();
//! assert_eq!(stats.totals.inserts, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{ClientError, PqClient, TimedResponse, TraceSplit, TraceTotals};
pub use protocol::{
    ErrorCode, QueueListRow, QueueStats, Request, Response, ServiceStats, TraceContext, TraceEcho,
    WireError, MAX_BATCH, MAX_FRAME_LEN, WIRE_VERSION,
};
pub use server::{PqServer, ServerConfig};

// Registry vocabulary used in the service API surface (queue specs, quotas,
// and the registry itself for `PqServer::spawn_registry`), re-exported so
// wire users don't need a direct `choice-registry` dependency.
pub use choice_registry::{BackendSpec, QueueRegistry, QuotaSpec, DEFAULT_QUEUE};

// The telemetry hub type appears in the server API (`PqServer::obs`);
// re-exported for the same reason.
pub use choice_obs::ObsHub;
