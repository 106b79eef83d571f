//! In-tree micro-benchmark harness: the zero-dependency stand-in for
//! `criterion` (see DESIGN.md "Dependency policy").
//!
//! Deliberately small: each benchmark runs a fixed warmup, then `N` timed
//! iterations, and reports the **median** and the **MAD** (median absolute
//! deviation) — both robust to the occasional scheduler hiccup that makes
//! means/stddevs useless at these durations. Throughput is derived from the
//! median. The bench files under `crates/bench/benches/` keep their
//! criterion-era names and group/id layout so `cargo bench -p primacy-bench`
//! output stays comparable across the switch.
//!
//! Environment knobs:
//! * `PRIMACY_BENCH_SAMPLES` — timed iterations per benchmark (default 10).
//! * `PRIMACY_BENCH_WARMUP` — warmup iterations (default 2).

use primacy_trace::fmt_duration;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing summary of one benchmark.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Median wall time per iteration.
    pub median: Duration,
    /// Median absolute deviation of the per-iteration times.
    pub mad: Duration,
    /// Number of timed iterations.
    pub samples: usize,
}

impl Stats {
    /// Throughput in MB/s for a workload of `bytes` per iteration.
    pub fn mbps(&self, bytes: u64) -> f64 {
        bytes as f64 / 1e6 / self.median.as_secs_f64().max(1e-12)
    }
}

fn env_count(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Run `f` under warmup + timed samples and return robust statistics.
pub fn measure<R>(mut f: impl FnMut() -> R) -> Stats {
    let warmup = env_count("PRIMACY_BENCH_WARMUP", 2);
    let samples = env_count("PRIMACY_BENCH_SAMPLES", 10);
    for _ in 0..warmup {
        black_box(f());
    }
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    let mut deviations: Vec<Duration> = times.iter().map(|&t| t.abs_diff(median)).collect();
    deviations.sort_unstable();
    let mad = deviations[deviations.len() / 2];
    Stats {
        median,
        mad,
        samples,
    }
}

/// A named group of benchmarks, mirroring criterion's
/// `benchmark_group` / `bench_with_input` reporting shape.
pub struct Group {
    name: String,
    /// Bytes processed per iteration; enables the MB/s column.
    throughput_bytes: Option<u64>,
}

impl Group {
    /// Start a group and print its header.
    pub fn new(name: &str) -> Self {
        println!("\n{name}");
        println!(
            "{:<28} {:>12} {:>12} {:>10}",
            "benchmark", "median", "MAD", "MB/s"
        );
        Self {
            name: name.to_string(),
            throughput_bytes: None,
        }
    }

    /// Set the per-iteration workload size used for the MB/s column.
    pub fn throughput_bytes(mut self, bytes: u64) -> Self {
        self.throughput_bytes = Some(bytes);
        self
    }

    /// Run one benchmark in the group (skipped when a CLI filter is given
    /// and matches neither the group nor the benchmark id).
    pub fn bench<R>(&self, id: &str, f: impl FnMut() -> R) -> Option<Stats> {
        if !filter_allows(&self.name, id) {
            return None;
        }
        let stats = measure(f);
        let mbps = match self.throughput_bytes {
            Some(bytes) => format!("{:>10.1}", stats.mbps(bytes)),
            None => format!("{:>10}", "-"),
        };
        println!(
            "{:<28} {:>12} {:>12} {mbps}",
            id,
            fmt_duration(stats.median),
            fmt_duration(stats.mad),
        );
        Some(stats)
    }
}

/// `cargo bench -- <filter>` support: run only benchmarks whose group or id
/// contains the filter substring. Cargo's own `--bench` style flags are
/// ignored.
fn filter_allows(group: &str, id: &str) -> bool {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    args.is_empty()
        || args
            .iter()
            .any(|f| group.contains(f.as_str()) || id.contains(f.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_stats() {
        let mut n = 0u64;
        let stats = measure(|| {
            n += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(stats.samples, 10);
        // warmup 2 + samples 10
        assert_eq!(n, 12);
        assert!(stats.median >= Duration::from_millis(1));
        assert!(stats.mad <= stats.median);
    }

    #[test]
    fn mbps_uses_median() {
        let stats = Stats {
            median: Duration::from_millis(10),
            mad: Duration::ZERO,
            samples: 1,
        };
        assert!((stats.mbps(1_000_000) - 100.0).abs() < 1e-9);
    }
}
