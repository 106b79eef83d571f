//! `primacy-trace` — zero-dependency observability for the PRIMACY suite.
//!
//! The paper's throughput claims (§III, Tables III–V) hinge on knowing where
//! time goes inside the pipeline — preconditioner vs. solver vs. ISOBAR
//! partitioning. This crate is the in-tree substitute for the `tracing` +
//! `metrics` crates the dependency policy (DESIGN.md) rules out: a facade of
//! **span timers**, **monotonic counters** and **fixed-bucket log2
//! histograms**, aggregated per thread and merged into the process's one
//! collector at scope exit.
//!
//! Design, in order of importance:
//!
//! 1. **Zero overhead when disabled.** Tracing starts disabled; every record
//!    function first checks one relaxed atomic bool and returns
//!    immediately — no `Instant::now`, no thread-local touch, no lock.
//!    `crates/bench/tests/trace_overhead.rs` pins this with the harness.
//! 2. **Lock-cheap when enabled.** Records go to a plain thread-local
//!    [`Aggregate`]; the collector's mutex is taken once per
//!    [`ThreadScope`] merge (typically once per worker thread per call),
//!    never per record.
//! 3. **Deterministic output.** Aggregates use `BTreeMap`, so tables and
//!    JSON render in a stable order.
//!
//! ```
//! use primacy_trace as trace;
//!
//! trace::enable();
//! // A worker thread brackets its work in a scope...
//! let scope = trace::thread_scope();
//! {
//!     let _span = trace::span("split");        // timed until dropped
//!     trace::counter("chunk.compress", 1);     // monotonic counter
//!     trace::observe("chunk.plain_bytes", 4096); // log2 histogram
//! }
//! drop(scope); // ...and the thread's aggregate merges into the collector here.
//! assert_eq!(trace::snapshot().counter("chunk.compress"), 1);
//! ```
//!
//! [`enable`] switches tracing on for the whole process, and nothing
//! switches it off: call it before the traced work runs. [`snapshot`] reads
//! the totals merged so far and [`reset`] discards them. Until [`enable`] is
//! called everything above is inert.
//!
//! The crate also owns the workspace's one JSON codec, [`json`]: the
//! `Value` emitter and parser, and the [`json::Report`] writer behind every
//! `PRIMACY_BENCH_JSON` document. It lives here because this std-only crate
//! sits at the bottom of the dependency graph, so the model's calibration
//! loader, the CLI, the server's load generator and `primacy-lint` can all
//! read and write reports without depending on the bench crate.
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

mod agg;
mod collect;
pub mod json;

pub use agg::{Aggregate, Histogram, SpanStat, HISTOGRAM_BUCKETS};
pub use collect::{fmt_duration, render_table, reset, snapshot};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Switch tracing on for the rest of the process. Calling it again is
/// harmless; there is no off switch, so a process that compares traced and
/// untraced runs does the untraced ones first.
pub fn enable() {
    // ORDERING: a one-way on flag; the collector it gates is a `static`
    // mutex that needs no publication.
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether tracing is live. One relaxed atomic load — this is the entire
/// disabled-path cost of every record function.
#[inline]
pub fn enabled() -> bool {
    // ORDERING: see `enable`.
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    static LOCAL: RefCell<LocalAgg> = const { RefCell::new(LocalAgg(Aggregate::new())) };
}

/// Thread-local accumulator; its `Drop` flushes to the collector at thread
/// exit so records are not lost if a thread never opened a [`ThreadScope`].
struct LocalAgg(Aggregate);

impl Drop for LocalAgg {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            collect::merge(&self.0);
        }
    }
}

/// Best-effort record into the thread-local aggregate. Silently drops the
/// record during thread teardown (destroyed TLS) or re-entrant borrows —
/// tracing must never panic or abort the traced program.
#[inline]
fn with_local(f: impl FnOnce(&mut Aggregate)) {
    let _ = LOCAL.try_with(|l| {
        if let Ok(mut local) = l.try_borrow_mut() {
            f(&mut local.0);
        }
    });
}

/// Merge this thread's pending records into the collector now. Called
/// automatically by [`ThreadScope`]; call it directly on the main thread
/// before taking a [`snapshot`].
pub fn flush_thread() {
    let mut taken = Aggregate::new();
    with_local(|agg| taken = std::mem::take(agg));
    if !taken.is_empty() {
        collect::merge(&taken);
    }
}

/// Guard that merges the current thread's aggregate into the collector when
/// dropped. Open one at the top of every worker thread (and around the
/// traced region on the main thread).
#[must_use = "the scope merges at drop; binding it to _ merges immediately"]
pub struct ThreadScope(());

impl Drop for ThreadScope {
    fn drop(&mut self) {
        flush_thread();
    }
}

/// Open a [`ThreadScope`] for the current thread.
pub fn thread_scope() -> ThreadScope {
    ThreadScope(())
}

/// A running span timer; records its elapsed time under `name` when
/// dropped. Inert (no clock read) when tracing is disabled.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            span_duration(self.name, start.elapsed());
        }
    }
}

/// Start timing the span `name` until the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

/// Record an already-measured duration under the span `name`. Use this when
/// the caller measures the interval itself (the pipeline's `StageTimings`
/// does) so the clock is read only once.
#[inline]
pub fn span_duration(name: &'static str, d: Duration) {
    if enabled() {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        with_local(|agg| agg.record_span(name, nanos));
    }
}

/// Add `delta` to the monotonic counter `name`.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        with_local(|agg| agg.record_counter(name, delta));
    }
}

/// Record `value` into the log2 histogram `name`.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        with_local(|agg| agg.record_observation(name, value));
    }
}

/// Record `count` identical observations of `value` into the log2 histogram
/// `name`. Hot loops tally locally and flush once per batch through this,
/// so per-event record overhead stays out of the loop; a zero `count` is a
/// no-op and leaves the histogram untouched.
#[inline]
pub fn observe_many(name: &'static str, value: u64, count: u64) {
    if enabled() && count > 0 {
        with_local(|agg| agg.record_observation_n(name, value, count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global and tracing cannot be switched off,
    // while the test harness runs every #[test] in one process — so exactly
    // one test enables tracing and exercises the full enable → record →
    // merge → snapshot → reset path, and the rest stay off the global.
    // (Aggregate logic is covered without globals in agg.rs.)
    #[test]
    fn end_to_end_enable_record_merge() {
        assert!(!enabled());
        // Records before enable are dropped by the enabled() gate.
        counter("early", 1);
        span_duration("early", Duration::from_nanos(5));

        enable();
        assert!(enabled());
        enable();
        assert!(enabled(), "a second enable keeps tracing on");

        {
            let _scope = thread_scope();
            let _span = span("outer");
            span_duration("stage", Duration::from_micros(3));
            counter("chunks", 2);
            observe("bytes", 4096);
            std::thread::sleep(Duration::from_millis(1));
        }
        // A worker thread with no explicit scope flushes at thread exit.
        std::thread::spawn(|| {
            counter("chunks", 5);
        })
        .join()
        .expect("worker thread");
        // The collector folds whole aggregates: two merges sum.
        let mut a = Aggregate::new();
        a.record_span("split", 1_000);
        a.record_counter("merged", 3);
        collect::merge(&a);
        collect::merge(&a);

        let snap = snapshot();
        assert_eq!(snap.counter("early"), 0);
        assert_eq!(snap.counter("chunks"), 7);
        assert_eq!(snap.spans["stage"].total_nanos, 3_000);
        assert!(snap.spans["outer"].total() >= Duration::from_millis(1));
        assert_eq!(snap.histograms["bytes"].count, 1);
        assert_eq!(snap.spans["split"].count, 2);
        assert_eq!(snap.counter("merged"), 6);

        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn span_guard_is_inert_without_clock_when_disabled() {
        // Can't observe the Instant directly, but the guard must be safely
        // droppable whether or not tracing is enabled.
        let g = SpanGuard {
            name: "inert",
            start: None,
        };
        drop(g);
    }
}
