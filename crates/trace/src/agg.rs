//! The aggregation model: per-thread accumulators for spans, counters and
//! fixed-bucket log2 histograms.
//!
//! Everything here is plain data — no locks, no globals. A thread records
//! into its own [`Aggregate`] (see the facade in [`crate`]) and the whole
//! aggregate is merged into the process's one collector in one call at
//! scope exit, so the hot path never takes a lock per record. A
//! [`Histogram`] is also usable on its own: `primacy-serve` keeps three in
//! its per-server `Metrics` registry.

use std::collections::BTreeMap;
use std::time::Duration;

/// Number of histogram buckets. Bucket `i` (for `i >= 1`) counts values `v`
/// with `floor(log2(v)) == i - 1`, i.e. `v` in `[2^(i-1), 2^i)`; bucket 0
/// counts zeros. 64 buckets cover the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Accumulated wall time of one named span across many activations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of span activations.
    pub count: u64,
    /// Total nanoseconds across all activations (saturating).
    pub total_nanos: u64,
}

impl SpanStat {
    /// Total time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_nanos)
    }

    /// Mean time per activation (zero when never activated).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.total_nanos / self.count)
    }

    fn add(&mut self, nanos: u64) {
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
    }

    fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
    }
}

/// Fixed-bucket log2 histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts; see [`HISTOGRAM_BUCKETS`] for the bucket boundaries.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating), for quick means.
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i` (0 for buckets 0 and 1).
    pub fn bucket_low(i: usize) -> u64 {
        if i <= 1 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        // bucket_index is < HISTOGRAM_BUCKETS by construction (leading_zeros
        // of a non-zero u64 is at most 63).
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Record `n` observations of the same `value` in one step. Equivalent
    /// to calling [`Histogram::observe`] `n` times; record sites that tally a
    /// value locally in a hot loop (e.g. the inflate symbol loop) use this to
    /// pay the record cost once per batch instead of once per event.
    pub fn observe_n(&mut self, value: u64, n: u64) {
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// One thread's (or one collector's) worth of trace data.
///
/// Keys are `&'static str` because every record site names its metric with a
/// string literal; `BTreeMap` keeps iteration (and therefore every rendered
/// table and JSON document) deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Named span timers.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Named monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named log2 histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl Aggregate {
    /// An empty aggregate (const so it can seed a thread-local).
    pub const fn new() -> Self {
        Self {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Record a completed span of `nanos` nanoseconds under `name`.
    pub fn record_span(&mut self, name: &'static str, nanos: u64) {
        self.spans.entry(name).or_default().add(nanos);
    }

    /// Add `delta` to the counter `name`.
    pub fn record_counter(&mut self, name: &'static str, delta: u64) {
        let c = self.counters.entry(name).or_default();
        *c = c.saturating_add(delta);
    }

    /// Record one histogram observation under `name`.
    pub fn record_observation(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Record `n` identical histogram observations under `name` in one step.
    pub fn record_observation_n(&mut self, name: &'static str, value: u64, n: u64) {
        self.histograms.entry(name).or_default().observe_n(value, n);
    }

    /// Fold another aggregate (typically a thread's) into this one.
    pub fn merge_from(&mut self, other: &Aggregate) {
        for (name, stat) in &other.spans {
            self.spans.entry(name).or_default().merge(stat);
        }
        for (name, delta) in &other.counters {
            let c = self.counters.entry(name).or_default();
            *c = c.saturating_add(*delta);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name).or_default().merge(hist);
        }
    }

    /// Total time of the span `name` ([`Duration::ZERO`] when absent).
    pub fn span_total(&self, name: &str) -> Duration {
        self.spans
            .get(name)
            .map(SpanStat::total)
            .unwrap_or(Duration::ZERO)
    }

    /// Value of the counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Lower bounds invert the index mapping.
        for i in 2..HISTOGRAM_BUCKETS {
            let low = Histogram::bucket_low(i);
            assert_eq!(Histogram::bucket_index(low), i, "bucket {i}");
            assert_eq!(Histogram::bucket_index(low - 1), i - 1, "bucket {i} low-1");
        }
    }

    #[test]
    fn histogram_observes_and_merges() {
        let mut a = Histogram::default();
        a.observe(0);
        a.observe(5);
        a.observe(5);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 10);
        assert_eq!(a.buckets[0], 1);
        assert_eq!(a.buckets[Histogram::bucket_index(5)], 2);
        let mut b = Histogram::default();
        b.observe(1 << 40);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.buckets[41], 1);
        assert!((a.mean() - (10.0 + (1u64 << 40) as f64) / 4.0).abs() < 1e-6);
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let mut a = Histogram::default();
        a.observe_n(5, 3);
        a.observe_n(0, 2);
        a.observe_n(7, 0); // zero batch is a no-op
        let mut b = Histogram::default();
        for _ in 0..3 {
            b.observe(5);
        }
        for _ in 0..2 {
            b.observe(0);
        }
        assert_eq!(a, b);

        let mut agg = Aggregate::new();
        agg.record_observation_n("syms", 2, 10);
        assert_eq!(agg.histograms["syms"].count, 10);
        assert_eq!(agg.histograms["syms"].sum, 20);
    }

    #[test]
    fn aggregate_records_and_merges() {
        let mut a = Aggregate::new();
        assert!(a.is_empty());
        a.record_span("split", 100);
        a.record_span("split", 200);
        a.record_counter("chunks", 2);
        a.record_observation("bytes", 4096);
        assert!(!a.is_empty());

        let mut b = Aggregate::new();
        b.record_span("split", 50);
        b.record_span("codec", 1_000);
        b.record_counter("chunks", 1);
        b.record_observation("bytes", 0);

        a.merge_from(&b);
        assert_eq!(a.spans["split"].count, 3);
        assert_eq!(a.spans["split"].total_nanos, 350);
        assert_eq!(a.spans["codec"].total_nanos, 1_000);
        assert_eq!(a.counter("chunks"), 3);
        assert_eq!(a.counter("missing"), 0);
        assert_eq!(a.histograms["bytes"].count, 2);
        assert_eq!(a.span_total("split"), Duration::from_nanos(350));
        assert_eq!(a.span_total("absent"), Duration::ZERO);
    }

    #[test]
    fn span_stat_mean_is_safe() {
        let s = SpanStat::default();
        assert_eq!(s.mean(), Duration::ZERO);
        let s = SpanStat {
            count: 4,
            total_nanos: 1_000,
        };
        assert_eq!(s.mean(), Duration::from_nanos(250));
    }

    #[test]
    fn saturating_accumulation_never_wraps() {
        let mut a = Aggregate::new();
        a.record_counter("c", u64::MAX);
        a.record_counter("c", 10);
        assert_eq!(a.counter("c"), u64::MAX);
        a.record_span("s", u64::MAX);
        a.record_span("s", 10);
        assert_eq!(a.spans["s"].total_nanos, u64::MAX);
    }
}
