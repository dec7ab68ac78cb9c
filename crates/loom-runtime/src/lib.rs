//! The serving-layer primitives (DESIGN.md §16) — `std` only, no
//! crates.io, and graph-agnostic:
//! - [`epoch::EpochCell`] — the atomically-swapped `Arc` under which
//!   the engine publishes immutable read views;
//! - [`metrics::ServeMetrics`] — lock-free served/refused counters and
//!   a log-bucketed latency histogram (p50/p99);
//! - [`net::LineServer`] — the newline-delimited TCP server with
//!   per-connection reader/writer threads, bounded reply queues and
//!   loud `ERR busy` admission refusals.

#![warn(missing_docs)]

pub mod epoch;
pub mod metrics;
pub mod net;

pub use epoch::EpochCell;
pub use metrics::{ServeMetrics, ServeStats};
pub use net::{LineHandler, LineServer, LineServerConfig};
