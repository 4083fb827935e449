//! # autotune-serve
//!
//! Tuning-as-a-service: the daemon that turns the `autotune` library into
//! a servable system. Three pieces (DESIGN.md §7):
//!
//! * **Persistent session repository** ([`repo`], [`wal`]) — every tuning
//!   session appends its observations to a checksum-framed JSONL
//!   write-ahead log, periodically compacted into a snapshot; on startup
//!   the daemon replays snapshot + WAL + shared journal to recover
//!   crashed sessions byte-identically, and a cached per-platform scan
//!   over normalized workload signatures ([`repo`]) lets
//!   new sessions warm-start GP tuners from the nearest past session
//!   without re-reading every session directory per query
//!   (OtterTune-style workload mapping: Euclidean distance on normalized
//!   metric vectors).
//! * **Group commit** ([`group`]) — under `fsync` durability, appends
//!   from every session are batched into one shared journal and synced
//!   once per batch, so durable-write throughput scales with batch size
//!   instead of paying one fsync per observation per session.
//! * **HTTP/1.1 JSON API** ([`http`], [`server`]) — a hand-rolled server
//!   over `std::net::TcpListener` (no external dependencies) with
//!   endpoints to create, advance, inspect, export, and cancel sessions.
//! * **Bounded scheduler** ([`scheduler`], [`server`]) — one session
//!   index and one bounded worker pool (one worker per core by default);
//!   concurrent `advance` calls on the *same* session coalesce onto a
//!   single driver job instead of queueing. A full queue rejects new work
//!   with HTTP 429. Reads — listing, detail, `/metrics` — come from a
//!   per-session view the driver republishes after every step, so they
//!   never wait for a step in flight; cancel and CSV export run at the
//!   driver's next step boundary. Graceful shutdown (SIGTERM or
//!   `POST /shutdown`) finishes in-flight evaluations, drains every
//!   session's tail to the WAL, and snapshots before exit.
//!
//! Determinism: each session owns two RNG streams derived from its seed —
//! one for tuner proposals, one re-seeded per evaluation step — so a
//! session recovered mid-run replays its tuner state exactly and then
//! continues producing the very observations the uninterrupted run would
//! have produced. Same seed → same recommendation, through crashes and at
//! any thread count.

#![warn(missing_docs)]

pub mod drift;
pub mod group;
pub mod http;
pub mod metrics;
pub mod repo;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod signal;
pub mod spec;
pub mod wal;

use std::fmt;

/// Errors surfaced by the serve subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// Underlying filesystem or socket failure.
    Io(std::io::Error),
    /// A persisted artifact failed to parse (corrupt beyond WAL-tail
    /// truncation, which is tolerated silently).
    Corrupt(String),
    /// The client request was malformed (unknown system/tuner, bad JSON).
    BadRequest(String),
    /// No session with the requested id.
    NotFound(String),
    /// The scheduler queue is full — retry later (HTTP 429).
    Busy,
    /// The session is not in a state that allows the operation.
    Conflict(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Corrupt(m) => write!(f, "corrupt repository: {m}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::NotFound(m) => write!(f, "not found: {m}"),
            ServeError::Busy => f.write_str("queue full, retry later"),
            ServeError::Conflict(m) => write!(f, "conflict: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Result alias for the serve subsystem.
pub type ServeResult<T> = Result<T, ServeError>;
