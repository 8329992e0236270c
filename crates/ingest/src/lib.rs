//! Async wire ingestion front half: a non-blocking socket server that
//! feeds the fleet engine live fieldbus traffic at wire rate.
//!
//! Everything below the scoring boundary in this workspace consumed
//! traffic from memory (`run_scenario`) or from recorded tapes
//! (`score_capture`, `temspc replay`). This crate adds the missing
//! front half: plants connect over TCP, speak a minimal length-prefixed
//! protocol around the existing strict [`temspc_fieldbus`] wire format,
//! and get their closed-loop steps scored by the same T²/SPE path the
//! offline tools use — detections served off the wire are bit-identical
//! to an offline replay of the same traffic, and [`detection_digest`]
//! (re-exported from `temspc-fleet`, next to the per-plant record
//! builder) makes that checkable from the command line.
//!
//! The pieces:
//!
//! * [`poller`] — level-triggered readiness polling (`epoll` on Linux,
//!   a degraded pure-`std` tick elsewhere) behind one tiny API.
//! * [`stream`] — the wire protocol: handshake framing, incremental
//!   torn-read-safe parsing, hostile-input hardening.
//! * [`server`] — the event loop + intake pipeline: bounded per-plant
//!   queues, park/unpark backpressure, batch scoring on the worker
//!   pool, one [`temspc_fleet::PlantRecord`] per connection.
//! * [`drive`] — the tape-replay load generator used by the smoke tests
//!   and the ingestion benchmark.
//! * [`shutdown`] — SIGINT/SIGTERM to a cooperative stop flag, so serve
//!   drains in flight work and flushes its report instead of dying.

#![warn(missing_docs)]

pub mod drive;
pub mod poller;
pub mod server;
pub mod shutdown;
pub mod stream;

pub use drive::{drive, DriveConfig, DriveError, DriveReport};
pub use poller::Polling;
pub use server::{load_report, save_report, IngestConfig, IngestReport, IngestServer, ModelSource};
pub use shutdown::{install_handlers, stop_flag};
pub use stream::{
    encode_hello, encode_record, Hello, StreamError, StreamEvent, StreamParser, HELLO_LEN,
    MAX_MESSAGE_LEN, PROTOCOL_VERSION,
};
pub use temspc_fleet::detection_digest;
/// A served connection's outcome is the fleet's per-plant record.
pub use temspc_fleet::PlantRecord as ConnectionReport;
