//! Per-tenant accounting and server health counters.
//!
//! [`Metrics`] is the server's one counter registry: exact per-tenant
//! byte/request/error counts plus health counters, owned by one
//! [`Server`](crate::Server) and snapshottable at any time through
//! [`Server::metrics`](crate::Server::metrics). `primacy-trace` records only
//! what this registry lacks: the `serve.request` counter and the log2
//! queue-depth, queue-wait and latency histograms.
//!
//! The registry is per server, not trace's process-global sink: one
//! process can run several servers (the integration tests do), each
//! answering for its own exact counts, and trace names must be `'static`,
//! so a per-tenant breakdown could not live there anyway.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lock_recover;

/// Byte/request/error accounting for one tenant.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests accepted into the queue for this tenant.
    pub requests: u64,
    /// Requests answered `Ok`.
    pub ok: u64,
    /// Requests answered with any error status (busy/timeout/bad/...).
    pub errors: u64,
    /// Payload bytes received from this tenant.
    pub bytes_in: u64,
    /// Payload bytes sent back to this tenant.
    pub bytes_out: u64,
}

/// Live server metrics. All counters are monotonic; relaxed ordering is
/// sufficient everywhere because readers only ever want totals, not
/// happens-before edges.
#[derive(Debug, Default)]
pub struct Metrics {
    tenants: Mutex<BTreeMap<u64, TenantCounters>>,
    /// Connections accepted.
    pub accepted_conns: AtomicU64,
    /// Connections fully closed.
    pub closed_conns: AtomicU64,
    /// Frames rejected with a typed protocol error.
    pub proto_errors: AtomicU64,
    /// Requests rejected with `Busy` backpressure.
    pub busy: AtomicU64,
    /// Requests cancelled after waiting past their deadline.
    pub timeouts: AtomicU64,
    /// Requests rejected because the server was draining.
    pub shedding: AtomicU64,
    /// Responses that could not be written back (peer gone or stalled).
    pub send_failures: AtomicU64,
    /// Connections cut for exceeding the read timeout (slow-loris guard).
    pub slow_closes: AtomicU64,
    /// Panics caught in connection handlers. Must stay 0.
    pub conn_panics: AtomicU64,
    /// Panics caught around codec execution in workers. Must stay 0.
    pub worker_panics: AtomicU64,
}

/// Add `delta` with relaxed ordering (all metrics are plain tallies).
pub(crate) fn bump(counter: &AtomicU64, delta: u64) {
    // ORDERING: monotonic counters read only as totals; no data is
    // published through them.
    counter.fetch_add(delta, Ordering::Relaxed);
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account an admitted request's input size to its tenant.
    pub fn tenant_request(&self, tenant: u64, bytes_in: u64) {
        let mut map = lock_recover(&self.tenants);
        let c = map.entry(tenant).or_default();
        c.requests = c.requests.saturating_add(1);
        c.bytes_in = c.bytes_in.saturating_add(bytes_in);
    }

    /// Account a completed request's outcome to its tenant.
    pub fn tenant_done(&self, tenant: u64, ok: bool, bytes_out: u64) {
        let mut map = lock_recover(&self.tenants);
        let c = map.entry(tenant).or_default();
        if ok {
            c.ok = c.ok.saturating_add(1);
        } else {
            c.errors = c.errors.saturating_add(1);
        }
        c.bytes_out = c.bytes_out.saturating_add(bytes_out);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // ORDERING: relaxed loads of monotonic tallies; see `bump`.
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            tenants: lock_recover(&self.tenants).clone(),
            accepted_conns: load(&self.accepted_conns),
            closed_conns: load(&self.closed_conns),
            proto_errors: load(&self.proto_errors),
            busy: load(&self.busy),
            timeouts: load(&self.timeouts),
            shedding: load(&self.shedding),
            send_failures: load(&self.send_failures),
            slow_closes: load(&self.slow_closes),
            conn_panics: load(&self.conn_panics),
            worker_panics: load(&self.worker_panics),
        }
    }
}

/// Frozen copy of [`Metrics`] returned by [`Metrics::snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-tenant accounting, keyed by tenant id.
    pub tenants: BTreeMap<u64, TenantCounters>,
    /// See [`Metrics::accepted_conns`].
    pub accepted_conns: u64,
    /// See [`Metrics::closed_conns`].
    pub closed_conns: u64,
    /// See [`Metrics::proto_errors`].
    pub proto_errors: u64,
    /// See [`Metrics::busy`].
    pub busy: u64,
    /// See [`Metrics::timeouts`].
    pub timeouts: u64,
    /// See [`Metrics::shedding`].
    pub shedding: u64,
    /// See [`Metrics::send_failures`].
    pub send_failures: u64,
    /// See [`Metrics::slow_closes`].
    pub slow_closes: u64,
    /// See [`Metrics::conn_panics`].
    pub conn_panics: u64,
    /// See [`Metrics::worker_panics`].
    pub worker_panics: u64,
}

impl MetricsSnapshot {
    /// Total `Ok` responses across tenants.
    pub fn total_ok(&self) -> u64 {
        self.tenants.values().map(|c| c.ok).sum()
    }

    /// Total requests admitted across tenants.
    pub fn total_requests(&self) -> u64 {
        self.tenants.values().map(|c| c.requests).sum()
    }

    /// Panics observed anywhere in the server. The fault-injection suite
    /// asserts this stays 0 under every assault.
    pub fn total_panics(&self) -> u64 {
        self.conn_panics.saturating_add(self.worker_panics)
    }

    /// Render a small human-readable table (used by the server binary on
    /// shutdown).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "conns accepted/closed: {}/{}  proto_errors: {}  busy: {}  timeouts: {}  \
             shedding: {}  send_failures: {}  slow_closes: {}  panics: {}",
            self.accepted_conns,
            self.closed_conns,
            self.proto_errors,
            self.busy,
            self.timeouts,
            self.shedding,
            self.send_failures,
            self.slow_closes,
            self.total_panics(),
        );
        let _ = writeln!(
            s,
            "{:>12} {:>10} {:>10} {:>10} {:>14} {:>14}",
            "tenant", "requests", "ok", "errors", "bytes_in", "bytes_out"
        );
        for (tenant, c) in &self.tenants {
            let _ = writeln!(
                s,
                "{tenant:>12} {:>10} {:>10} {:>10} {:>14} {:>14}",
                c.requests, c.ok, c.errors, c.bytes_in, c.bytes_out
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_accounting_accumulates() {
        let m = Metrics::new();
        m.tenant_request(7, 100);
        m.tenant_request(7, 50);
        m.tenant_request(9, 10);
        m.tenant_done(7, true, 40);
        m.tenant_done(7, false, 0);
        m.tenant_done(9, true, 5);
        let snap = m.snapshot();
        assert_eq!(
            snap.tenants[&7],
            TenantCounters {
                requests: 2,
                ok: 1,
                errors: 1,
                bytes_in: 150,
                bytes_out: 40,
            }
        );
        assert_eq!(snap.tenants[&9].ok, 1);
        assert_eq!(snap.total_requests(), 3);
        assert_eq!(snap.total_ok(), 2);
        assert_eq!(snap.total_panics(), 0);
    }

    #[test]
    fn health_counters_bump() {
        let m = Metrics::new();
        bump(&m.busy, 3);
        bump(&m.conn_panics, 1);
        let snap = m.snapshot();
        assert_eq!(snap.busy, 3);
        assert_eq!(snap.total_panics(), 1);
        // Render never panics and mentions the numbers.
        let table = snap.render();
        assert!(table.contains("busy: 3"));
    }
}
