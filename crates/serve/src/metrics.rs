//! Per-tenant accounting, server health counters and latency histograms.
//!
//! [`Metrics`] is the server's one registry: exact per-tenant
//! byte/request/error counts, health counters, and log2 histograms of queue
//! depth, queue wait and codec latency, owned by one
//! [`Server`](crate::Server) and snapshottable at any time through
//! [`Server::metrics`](crate::Server::metrics). The server records nothing
//! anywhere else.
//!
//! The registry is per server, not trace's process-global collector: one
//! process can run several servers (the integration tests do), each
//! answering for its own exact counts, and trace names must be `'static`,
//! so a per-tenant breakdown could not live there anyway.

use std::collections::BTreeMap;
use std::sync::Mutex;

use primacy_trace::Histogram;

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

/// Live server metrics: one [`MetricsSnapshot`] under one mutex.
///
/// The lock is a leaf: nothing else is locked and no I/O happens while it
/// is held, so taking it can never be part of a lock-order cycle.
#[derive(Debug, Default)]
pub struct Metrics(Mutex<MetricsSnapshot>);

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Update the live metrics under the lock. Every update the server
    /// makes goes through here, several fields at once where one event
    /// moves several. `update` runs with the lock held, so it touches the
    /// snapshot and nothing else.
    pub(crate) fn record(&self, update: impl FnOnce(&mut MetricsSnapshot)) {
        update(&mut lock_recover(&self.0));
    }

    /// Point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        lock_recover(&self.0).clone()
    }
}

/// Every counter and histogram of one server: the value [`Metrics`] guards
/// and the copy [`Metrics::snapshot`] returns. Counters are monotonic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-tenant accounting, keyed by tenant id.
    pub tenants: BTreeMap<u64, TenantCounters>,
    /// Connections accepted.
    pub accepted_conns: u64,
    /// Connections fully closed.
    pub closed_conns: u64,
    /// Frames rejected with a typed protocol error.
    pub proto_errors: u64,
    /// Requests rejected with `Busy` backpressure.
    pub busy: u64,
    /// Requests cancelled after waiting past their deadline.
    pub timeouts: u64,
    /// Requests rejected because the server was draining.
    pub shedding: u64,
    /// Responses that could not be written back (peer gone or stalled).
    pub send_failures: u64,
    /// Connections cut for exceeding the read timeout (slow-loris guard).
    pub slow_closes: u64,
    /// Panics caught in connection handlers. Must stay 0.
    pub conn_panics: u64,
    /// Panics caught around codec execution in workers. Must stay 0.
    pub worker_panics: u64,
    /// Queue depth after each admission, the admitted job included. The
    /// connection thread records it once the push returns, so a worker may
    /// answer the job first.
    pub queue_depth: Histogram,
    /// Microseconds each admitted job waited in the queue, recorded when a
    /// worker takes it.
    pub queue_wait_us: Histogram,
    /// Microseconds of codec work per executed job; a job cancelled at its
    /// deadline records none.
    pub latency_us: Histogram,
}

impl MetricsSnapshot {
    /// Account an admitted request's input size to its tenant.
    pub(crate) fn tenant_request(&mut self, tenant: u64, bytes_in: u64) {
        let c = self.tenants.entry(tenant).or_default();
        c.requests = c.requests.saturating_add(1);
        c.bytes_in = c.bytes_in.saturating_add(bytes_in);
    }

    /// Account a completed request's outcome to its tenant.
    pub(crate) fn tenant_done(&mut self, tenant: u64, ok: bool, bytes_out: u64) {
        let c = self.tenants.entry(tenant).or_default();
        if ok {
            c.ok = c.ok.saturating_add(1);
        } else {
            c.errors = c.errors.saturating_add(1);
        }
        c.bytes_out = c.bytes_out.saturating_add(bytes_out);
    }

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

    /// Render a small human-readable table (the server binary and
    /// `primacy-loadgen` print it on shutdown).
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
        for (name, h) in [
            ("queue_depth", &self.queue_depth),
            ("queue_wait_us", &self.queue_wait_us),
            ("latency_us", &self.latency_us),
        ] {
            let _ = writeln!(s, "{name:<14} n={:<10} mean={:.1}", h.count, h.mean());
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
        m.record(|s| s.tenant_request(7, 100));
        m.record(|s| s.tenant_request(7, 50));
        m.record(|s| s.tenant_request(9, 10));
        m.record(|s| s.tenant_done(7, true, 40));
        m.record(|s| s.tenant_done(7, false, 0));
        m.record(|s| s.tenant_done(9, true, 5));
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
    fn health_counters_and_histograms_record() {
        let m = Metrics::new();
        m.record(|s| {
            s.busy += 3;
            s.conn_panics += 1;
            s.latency_us.observe(40);
            s.latency_us.observe(60);
        });
        let snap = m.snapshot();
        assert_eq!(snap.busy, 3);
        assert_eq!(snap.total_panics(), 1);
        assert_eq!(snap.latency_us.count, 2);
        assert_eq!(snap.queue_depth.count, 0);
        // Render never panics and mentions the numbers.
        let table = snap.render();
        assert!(table.contains("busy: 3"));
        assert!(
            table.contains("latency_us     n=2          mean=50.0"),
            "{table}"
        );
    }
}
