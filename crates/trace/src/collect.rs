//! The process's one collector and human-readable rendering.

use crate::agg::{Aggregate, Histogram};
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Every thread's aggregate, folded into one under a mutex.
///
/// The mutex is taken once per thread-scope merge, not per record, so the
/// hot path stays lock-free.
static COLLECTOR: Mutex<Aggregate> = Mutex::new(Aggregate::new());

fn lock() -> MutexGuard<'static, Aggregate> {
    // A panic while holding the lock cannot corrupt the plain-data
    // aggregate; recover it rather than poisoning all future traces.
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fold one thread's aggregate into the collector.
pub(crate) fn merge(agg: &Aggregate) {
    lock().merge_from(agg);
}

/// Clone the totals merged so far. Records still pending in a thread's
/// aggregate are not included: see [`crate::flush_thread`].
pub fn snapshot() -> Aggregate {
    lock().clone()
}

/// Discard everything collected so far.
pub fn reset() {
    *lock() = Aggregate::new();
}

/// Format a duration compactly with a unit picked by magnitude
/// (`12 ns`, `12.00 µs`, `12.00 ms`, `2.000 s`).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Render the per-stage breakdown table for the spans named in `stages`
/// (in that order), followed by any other recorded spans, counters and
/// histogram summaries. `wall` is the caller-measured wall time the
/// percentages are relative to; stage time can exceed it when several
/// threads ran stages concurrently.
pub fn render_table(agg: &Aggregate, stages: &[&str], wall: Duration) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>8} {:>10} {:>12}",
        "stage", "total", "% wall", "count", "mean"
    );
    let wall_s = wall.as_secs_f64();
    let mut stage_total = Duration::ZERO;
    for &stage in stages {
        let stat = agg.spans.get(stage).copied().unwrap_or_default();
        stage_total += stat.total();
        let pct = if wall_s > 0.0 {
            100.0 * stat.total().as_secs_f64() / wall_s
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>7.1}% {:>10} {:>12}",
            stage,
            fmt_duration(stat.total()),
            pct,
            stat.count,
            fmt_duration(stat.mean()),
        );
    }
    let pct = if wall_s > 0.0 {
        100.0 * stage_total.as_secs_f64() / wall_s
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>7.1}%",
        "stages total",
        fmt_duration(stage_total),
        pct
    );
    let _ = writeln!(out, "{:<22} {:>12}", "wall", fmt_duration(wall));

    let extra: Vec<_> = agg
        .spans
        .iter()
        .filter(|(name, _)| !stages.contains(*name))
        .collect();
    if !extra.is_empty() {
        let _ = writeln!(out, "\nother spans:");
        for (name, stat) in extra {
            let _ = writeln!(
                out,
                "  {:<28} {:>12} {:>10} x {:>12}",
                name,
                fmt_duration(stat.total()),
                stat.count,
                fmt_duration(stat.mean()),
            );
        }
    }
    if !agg.counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, value) in &agg.counters {
            let _ = writeln!(out, "  {name:<34} {value:>14}");
        }
    }
    if !agg.histograms.is_empty() {
        let _ = writeln!(out, "\nhistograms (log2 buckets, low..):");
        for (name, hist) in &agg.histograms {
            let _ = writeln!(
                out,
                "  {:<34} n={} mean={:.1}",
                name,
                hist.count,
                hist.mean()
            );
            for (i, &c) in hist.buckets.iter().enumerate() {
                if c > 0 {
                    let _ = writeln!(out, "    >= {:<16} {:>12}", Histogram::bucket_low(i), c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_stages_in_order_with_percentages() {
        let mut a = Aggregate::new();
        a.record_span("split", 250_000_000);
        a.record_span("deflate", 500_000_000);
        a.record_span("archive.read_chunk", 10_000_000);
        a.record_counter("chunk.compress", 4);
        a.record_observation("chunk.plain_bytes", 4096);
        let table = render_table(&a, &["split", "freq", "deflate"], Duration::from_secs(1));
        let split_line = table
            .lines()
            .find(|l| l.starts_with("split"))
            .expect("split row");
        assert!(split_line.contains("25.0%"), "{split_line}");
        let freq_line = table
            .lines()
            .find(|l| l.starts_with("freq"))
            .expect("freq row present even when unrecorded");
        assert!(freq_line.contains("0 ns"), "{freq_line}");
        assert!(table.contains("stages total"));
        assert!(table.contains("75.0%"), "{table}");
        assert!(table.contains("archive.read_chunk"));
        assert!(table.contains("chunk.compress"));
        assert!(table.contains("chunk.plain_bytes"));
        // Stage order follows the argument order, not alphabetical.
        let si = table.find("split").expect("split");
        let fi = table.find("freq").expect("freq");
        let di = table.find("deflate").expect("deflate");
        assert!(si < fi && fi < di);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }

    #[test]
    fn table_handles_zero_wall() {
        let a = Aggregate::new();
        let table = render_table(&a, &["split"], Duration::ZERO);
        assert!(table.contains("wall"));
    }
}
