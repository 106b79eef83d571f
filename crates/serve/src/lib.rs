//! `primacy-serve`: a multi-tenant TCP compression service over the
//! PRIMACY codecs.
//!
//! The crate turns the library pipeline into a network service with the
//! operational properties ROADMAP.md's "production-scale" north star asks
//! for:
//!
//! * a **length-prefixed binary protocol** ([`protocol`]) whose decoder is
//!   a designated untrusted-input surface — checked reads only, every
//!   attacker-controlled length capped before allocation;
//! * a **bounded worker pool** ([`server`]) with one codec scratch per
//!   worker, explicit [`protocol::Status::Busy`] backpressure instead of
//!   unbounded buffering, per-request queue deadlines, and graceful
//!   shutdown that drains every admitted request;
//! * **per-tenant accounting, health counters and queue-depth, queue-wait
//!   and latency histograms** ([`metrics`]), the server's one registry,
//!   readable live through [`Server::metrics`]; the server records nothing
//!   in the process-global `primacy-trace` collector;
//! * a blocking **client** ([`client`]) used by the integration tests and
//!   the `primacy-loadgen` load generator.
//!
//! Quick start (see README for the binaries):
//!
//! ```
//! use primacy_serve::{Server, ServeConfig, ServeClient, ServeCodec, client::expect_ok};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//! let data = vec![42u8; 4096];
//! let resp = client.compress(ServeCodec::Zlib, 1, 7, data.clone()).unwrap();
//! let compressed = expect_ok(resp).unwrap();
//! let resp = client.decompress(ServeCodec::Zlib, 2, 7, compressed).unwrap();
//! assert_eq!(expect_ok(resp).unwrap(), data);
//! server.shutdown();
//! ```
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{ClientError, ServeClient};
pub use metrics::{Metrics, MetricsSnapshot, TenantCounters};
pub use protocol::{Op, ProtoError, Request, Response, ServeCodec, Status};
pub use server::{ServeConfig, Server};

use std::sync::{Mutex, MutexGuard};

/// Lock `m`, recovering the guard if a panic poisoned it. Every mutex in
/// this crate guards plain data (the metrics, the job deque and its closed
/// flag, connection maps and socket handles) that stays valid when a
/// holder unwinds, and the server must keep answering after a caught
/// panic.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
