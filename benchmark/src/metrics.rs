//! The metrics the benchmark reports, by name and unit — the names later
//! changes claim gains by — and the report that carries them. The same
//! names are listed in `BENCHMARK.json`; a unit test keeps the two in step.

use crate::stats::{median, mix_p50, sorted, tail_percentile, windowed_tail, Summary, MIN_TAIL};
use primacy_bench::json::Value;

/// End-to-end metrics: what `--trace 0` prints.
pub const END_TO_END: &[(&str, &str)] = &[
    ("write_mbps", "MB/s"),
    ("read_mbps", "MB/s"),
    ("range_p50_ms", "ms"),
    ("range_p95_ms", "ms"),
    ("ratio", "x"),
    ("write_cpu_s_per_gb", "s/GB"),
    ("serve_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: what `--trace 1` prints.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.split.compress_ms", "ms"),
    ("pipeline.freq.compress_ms", "ms"),
    ("pipeline.idmap.compress_ms", "ms"),
    ("pipeline.linearize.compress_ms", "ms"),
    ("pipeline.deflate.compress_ms", "ms"),
    ("pipeline.isobar.compress_ms", "ms"),
    ("pipeline.split.decompress_ms", "ms"),
    ("pipeline.idmap.decompress_ms", "ms"),
    ("pipeline.linearize.decompress_ms", "ms"),
    ("pipeline.deflate.decompress_ms", "ms"),
    ("pipeline.isobar.decompress_ms", "ms"),
    ("pipeline.stage_sum_pct", "%"),
    ("pipeline.decode_stage_sum_pct", "%"),
    ("pipeline.own_index_chunks", "count"),
    ("pipeline.isobar_compressible_pct", "%"),
    ("codecs.deflate.hi_compress_ms", "ms"),
    ("codecs.deflate.lo_compress_ms", "ms"),
    ("codecs.deflate.crc_ms", "ms"),
    ("codecs.deflate.hi_ratio", "x"),
    ("codecs.deflate.lo_ratio", "x"),
    ("codecs.zlib.compress_us", "us"),
    ("codecs.lzr.compress_us", "us"),
    ("codecs.fpc.compress_us", "us"),
    ("codecs.primacy.compress_us", "us"),
    ("codecs.zlib.decompress_us", "us"),
    ("codecs.lzr.decompress_us", "us"),
    ("codecs.fpc.decompress_us", "us"),
    ("codecs.primacy.decompress_us", "us"),
    ("archive.append_block_ms", "ms"),
    ("archive.finish_ms", "ms"),
    ("archive.sink_busy_ms", "ms"),
    ("archive.sink_writes", "count"),
    ("archive.sink_bytes", "B"),
    ("archive.hidden_pct", "%"),
    ("archive.open_ms", "ms"),
    ("archive.read_chunk_ms", "ms"),
    ("archive.range_chunks_per_read", "count"),
    ("archive.range_decode_amp", "x"),
    ("serve.ping_rtt_us", "us"),
    ("serve.op_rtt_us", "us"),
    ("serve.non_codec_us", "us"),
    ("serve.max_ops_s", "ops/s"),
    ("serve.open_p99_ms", "ms"),
    ("serve.busy", "count"),
    ("serve.timeouts", "count"),
    ("serve.proto_errors", "count"),
    ("serve.send_failures", "count"),
    ("serve.panics", "count"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.gen_cpu_pct", "%"),
    ("host.nproc", "count"),
    ("host.memcpy_gbps", "GB/s"),
    ("host.crc32_mbps", "MB/s"),
    ("trace_overhead_pct", "%"),
    ("fail_pct", "%"),
];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

/// Every metric a run measured, and why any it should have is missing.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, summary: Summary) {
        match END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name) {
            Some(&(_, unit)) => self.metrics.push(Metric {
                name: name.to_string(),
                unit,
                value,
                summary,
            }),
            None => self.problems.push(format!("{name} is not a listed metric")),
        }
    }

    /// A value measured once, or exact by construction.
    pub fn exact(&mut self, name: &str, value: f64) {
        self.add(name, value, Summary::exact(value));
    }

    /// The median of `samples`.
    pub fn sampled(&mut self, name: &str, samples: &[f64]) {
        if samples.is_empty() {
            self.problems.push(format!("{name} has no samples"));
        } else {
            self.add(name, median(samples), Summary::of(samples));
        }
    }

    /// Nearest-rank percentile `p` of `samples`, when enough lie beyond it.
    pub fn tail(&mut self, name: &str, samples: &[f64], p: f64) {
        match tail_percentile(&sorted(samples), p) {
            Some(v) => self.add(name, v, Summary::of(samples)),
            None => self.problems.push(format!(
                "{name}: {} samples leave fewer than {MIN_TAIL} beyond p{}",
                samples.len(),
                p * 100.0
            )),
        }
    }

    /// The [`mix_p50`] of `samples`; `kinds[i]` is the op kind of
    /// `samples[i]`.
    pub fn mix_p50(&mut self, name: &str, kinds: &[usize], samples: &[f64]) {
        match mix_p50(kinds, samples) {
            Some(v) => self.add(name, v, Summary::of(samples)),
            None => self.problems.push(format!(
                "{name}: some op kind has fewer than {} samples",
                2 * MIN_TAIL
            )),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// `(name, unit, value)` of every metric, for the bound check.
    pub fn records(&self) -> Vec<(String, &'static str, f64)> {
        self.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit, m.value))
            .collect()
    }

    /// Median over time windows of the percentile `p` of time-ordered
    /// `samples` (see [`windowed_tail`]).
    pub fn windowed(&mut self, name: &str, samples: &[f64], p: f64) {
        match windowed_tail(samples, p) {
            Some((v, tails)) => self.add(name, v, Summary::of(&tails)),
            None => self.problems.push(format!(
                "{name}: {} samples do not fill one window",
                samples.len()
            )),
        }
    }

    /// Every metric with its unit, sample count, median and quartiles.
    pub fn to_value(&self) -> Value {
        Value::object(self.metrics.iter().map(|m| {
            let s = m.summary;
            let fields = [
                ("value", Value::from(m.value)),
                ("unit", m.unit.into()),
                ("n", s.n.into()),
                ("median", s.median.into()),
                ("q1", s.q1.into()),
                ("q3", s.q3.into()),
            ];
            (m.name.clone(), Value::object(fields))
        }))
    }

    /// The one-line result: the `listed` metrics, value and unit only.
    pub fn result_line(
        &self,
        listed: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics = listed.iter().filter_map(|(n, _)| self.get(n)).map(|m| {
            let fields = [("value", Value::from(m.value)), ("unit", m.unit.into())];
            (m.name.clone(), Value::object(fields))
        });
        Value::object([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Number(attempted as f64)),
            ("failed", Value::Number(failed as f64)),
            ("metrics", Value::object(metrics)),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use primacy_bench::json;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, key: &str| {
            m.get(key)
                .and_then(Value::as_str)
                .expect("string field")
                .to_string()
        };
        doc.get(section)
            .and_then(Value::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn names_and_units_are_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert!(all.iter().all(|n| valid_name(n)));
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len());
        for (_, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_carries_exactly_the_listed_metrics() {
        let mut r = Report::default();
        r.exact("ratio", 2.5);
        r.sampled("setup_s", &[1.0, 3.0, 2.0]);
        r.exact("fail_pct", 0.0);
        let line = r.result_line(&[("ratio", "x"), ("setup_s", "s")], true, 3, 0);
        assert_eq!(
            line,
            r#"{"attempted":3,"correct":true,"failed":0,"metrics":{"ratio":{"unit":"x","value":2.5},"setup_s":{"unit":"s","value":2}}}"#
        );
        r.exact("nope", 1.0);
        r.sampled("write_mbps", &[]);
        r.tail("range_p95_ms", &[1.0; 50], 0.95);
        r.windowed("serve.open_p99_ms", &[1.0; 999], 0.99);
        assert_eq!(r.problems.len(), 4);
    }
}
