//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the PRIMACY
//! paper (see DESIGN.md's experiment index) and prints paper-vs-measured
//! values so EXPERIMENTS.md can be filled in by running them.
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

pub mod harness;

// The JSON codec and report writer live in `primacy-trace`; this re-export
// keeps `primacy_bench::json` and `primacy_bench::Report` working for the
// bench binaries and the `benchmark/` package.
pub use primacy_trace::json::{self, Report};

use json::Value;
use primacy_datagen::DatasetId;

/// Number of doubles per dataset used by the bench binaries. 2²¹ elements =
/// 16 MiB — several 3 MB chunks, large enough for stable ratios, small
/// enough that the full 20-dataset sweep finishes in minutes. Override with
/// the `PRIMACY_BENCH_ELEMS` environment variable.
pub fn dataset_elements() -> usize {
    std::env::var("PRIMACY_BENCH_ELEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 21)
}

/// Generate a dataset at the bench size, as raw little-endian bytes.
pub fn dataset_bytes(id: DatasetId) -> Vec<u8> {
    id.generate_bytes(dataset_elements())
}

/// Generate a dataset at the bench size, as doubles.
pub fn dataset_values(id: DatasetId) -> Vec<f64> {
    id.generate(dataset_elements())
}

/// One measured-vs-paper record, serializable for EXPERIMENTS.md tooling.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Experiment identifier (e.g. "table3/gts_phi_l/zlib_cr").
    pub key: String,
    /// Value the paper reports.
    pub paper: f64,
    /// Value this build measures.
    pub measured: f64,
}

impl Comparison {
    /// Relative deviation of measured from paper.
    pub fn deviation(&self) -> f64 {
        if self.paper == 0.0 {
            return f64::NAN;
        }
        (self.measured - self.paper) / self.paper
    }

    /// Hand-rolled JSON form (the in-tree substitute for a serde derive).
    pub fn to_value(&self) -> Value {
        Value::object([
            ("key", Value::from(self.key.as_str())),
            ("paper", Value::from(self.paper)),
            ("measured", Value::from(self.measured)),
            ("deviation", Value::from(self.deviation())),
        ])
    }
}

/// Format a MB/s number compactly.
pub fn mbps(x: f64) -> String {
    format!("{x:8.2}")
}

/// Print a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Render a sparkline-style ASCII bar for quick visual comparison in
/// terminal output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if !(value.is_finite() && max > 0.0) {
        return String::new();
    }
    let filled = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    let mut s = String::with_capacity(width);
    for _ in 0..filled {
        s.push('#');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_deviation() {
        let c = Comparison {
            key: "x".into(),
            paper: 2.0,
            measured: 2.5,
        };
        assert!((c.deviation() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bar_is_bounded() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10).len(), 10);
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(f64::NAN, 10.0, 10), "");
    }

    #[test]
    fn push_stages_emits_canonical_records() {
        use primacy_core::StageTimings;
        use std::time::Duration;
        let mut r = Report::new("test");
        let timings = StageTimings {
            split: Duration::from_millis(1),
            codec: Duration::from_millis(2),
            ..Default::default()
        };
        r.push_stages("table3/demo", timings.by_stage());
        let v = r.to_value();
        let records = v.get("records").and_then(Value::as_array).unwrap();
        // Six stages + the total.
        assert_eq!(records.len(), 7);
        let keys: Vec<&str> = records
            .iter()
            .map(|rec| rec.get("key").and_then(Value::as_str).unwrap())
            .collect();
        assert!(keys.contains(&"table3/demo/stage/split"));
        assert!(keys.contains(&"table3/demo/stage/deflate"));
        assert!(keys.contains(&"table3/demo/stage_total_s"));
        let total = records
            .iter()
            .find(|rec| rec.get("key").and_then(Value::as_str) == Some("table3/demo/stage_total_s"))
            .and_then(|rec| rec.get("value"))
            .and_then(Value::as_f64)
            .unwrap();
        assert!((total - 0.003).abs() < 1e-9);
    }

    #[test]
    fn dataset_helpers_agree() {
        std::env::set_var("PRIMACY_BENCH_ELEMS", "1000");
        assert_eq!(dataset_elements(), 1000);
        let v = dataset_values(DatasetId::ObsTemp);
        let b = dataset_bytes(DatasetId::ObsTemp);
        assert_eq!(v.len(), 1000);
        assert_eq!(b.len(), 8000);
        std::env::remove_var("PRIMACY_BENCH_ELEMS");
    }
}
