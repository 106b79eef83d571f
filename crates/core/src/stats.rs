//! Compression statistics and per-stage timing.

use std::time::Duration;

/// Canonical trace-span name of the hi/lo split (and re-join) stage.
pub const STAGE_SPLIT: &str = "split";
/// Canonical trace-span name of frequency analysis + index generation.
pub const STAGE_FREQ: &str = "freq";
/// Canonical trace-span name of ID encode/decode.
pub const STAGE_IDMAP: &str = "idmap";
/// Canonical trace-span name of row↔column linearization.
pub const STAGE_LINEARIZE: &str = "linearize";
/// Canonical trace-span name of the backend codec (named after the default
/// deflate backend; other backends record under the same span so the stage
/// table keeps one column per pipeline position).
pub const STAGE_DEFLATE: &str = "deflate";
/// Canonical trace-span name of ISOBAR analysis + partitioning.
pub const STAGE_ISOBAR: &str = "isobar";

/// The six pipeline stages in paper order (Fig. 2) — the row order of the
/// `--trace` stage table and the key order of its JSON emission.
pub const STAGES: [&str; 6] = [
    STAGE_SPLIT,
    STAGE_FREQ,
    STAGE_IDMAP,
    STAGE_LINEARIZE,
    STAGE_DEFLATE,
    STAGE_ISOBAR,
];

/// Wall-clock time spent in each pipeline stage during one compress or
/// decompress call. Stage names follow the paper's workflow (Fig. 2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// High/low byte-matrix split (or re-join on decompress).
    pub split: Duration,
    /// Frequency analysis + index generation (compress only).
    pub frequency_analysis: Duration,
    /// ID encode/decode of the high-order bytes (on decode, with loading
    /// each chunk's index).
    pub id_mapping: Duration,
    /// Row↔column linearization.
    pub linearization: Duration,
    /// ISOBAR analysis + partitioning of the low-order bytes.
    pub isobar: Duration,
    /// Backend codec + container time: both hi and lo sections plus the
    /// stream's CRC-32 integrity trailer (the container-level analogue of
    /// the Adler-32 the zlib wrapper already counts here).
    pub codec: Duration,
}

impl StageTimings {
    /// Total preconditioner time (everything except the backend codec) —
    /// the `Tprec` input of the paper's performance model.
    pub fn preconditioner(&self) -> Duration {
        self.split + self.frequency_analysis + self.id_mapping + self.linearization + self.isobar
    }

    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.preconditioner() + self.codec
    }

    /// The timings as `(stage name, duration)` pairs in [`STAGES`] order —
    /// the bridge from this struct to trace tables and JSON reports.
    pub fn by_stage(&self) -> [(&'static str, Duration); 6] {
        [
            (STAGE_SPLIT, self.split),
            (STAGE_FREQ, self.frequency_analysis),
            (STAGE_IDMAP, self.id_mapping),
            (STAGE_LINEARIZE, self.linearization),
            (STAGE_DEFLATE, self.codec),
            (STAGE_ISOBAR, self.isobar),
        ]
    }

    /// Accumulate another timing record (e.g. across chunks).
    pub fn add(&mut self, other: &StageTimings) {
        self.split += other.split;
        self.frequency_analysis += other.frequency_analysis;
        self.id_mapping += other.id_mapping;
        self.linearization += other.linearization;
        self.isobar += other.isobar;
        self.codec += other.codec;
    }
}

/// Outcome of one compression call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Bytes in.
    pub original_bytes: usize,
    /// Bytes out (full container, metadata included).
    pub compressed_bytes: usize,
    /// Number of chunks processed.
    pub chunks: usize,
    /// Chunks that carried their own index (< `chunks` under index reuse).
    pub own_index_chunks: usize,
    /// Fraction of low-order bytes classified compressible by ISOBAR
    /// (the model's α₂), averaged over chunks weighted by size.
    pub isobar_compressible_fraction: f64,
    /// Per-stage wall-clock timings, summed over chunks.
    pub timings: StageTimings,
}

impl CompressionStats {
    /// Compression ratio, original / compressed (Eq. 1 of the paper).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 0.0;
        }
        self.original_bytes as f64 / self.compressed_bytes as f64
    }

    /// End-to-end throughput in MB/s over the measured wall time
    /// (Eq. 2: original size / runtime).
    pub fn throughput_mbps(&self) -> f64 {
        let secs = self.timings.total().as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        self.original_bytes as f64 / 1e6 / secs
    }

    /// Preconditioner-only throughput (the model's `Tprec`).
    pub fn preconditioner_mbps(&self) -> f64 {
        let secs = self.timings.preconditioner().as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        self.original_bytes as f64 / 1e6 / secs
    }

    /// Codec-only throughput (the model's `Tcomp`).
    pub fn codec_mbps(&self) -> f64 {
        let secs = self.timings.codec.as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        self.original_bytes as f64 / 1e6 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_throughput() {
        let stats = CompressionStats {
            original_bytes: 8_000_000,
            compressed_bytes: 2_000_000,
            chunks: 3,
            own_index_chunks: 3,
            isobar_compressible_fraction: 0.5,
            timings: StageTimings {
                codec: Duration::from_millis(500),
                split: Duration::from_millis(250),
                ..Default::default()
            },
        };
        assert!((stats.ratio() - 4.0).abs() < 1e-12);
        // 8 MB over 0.75 s total.
        assert!((stats.throughput_mbps() - 8.0 / 0.75).abs() < 1e-9);
        assert!((stats.preconditioner_mbps() - 32.0).abs() < 1e-9);
        assert!((stats.codec_mbps() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn timings_accumulate() {
        let mut a = StageTimings {
            split: Duration::from_millis(10),
            codec: Duration::from_millis(20),
            ..Default::default()
        };
        let b = StageTimings {
            split: Duration::from_millis(5),
            isobar: Duration::from_millis(7),
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.split, Duration::from_millis(15));
        assert_eq!(a.isobar, Duration::from_millis(7));
        assert_eq!(a.preconditioner(), Duration::from_millis(22));
        assert_eq!(a.total(), Duration::from_millis(42));
    }

    #[test]
    fn by_stage_covers_every_field_in_canonical_order() {
        let t = StageTimings {
            split: Duration::from_nanos(1),
            frequency_analysis: Duration::from_nanos(2),
            id_mapping: Duration::from_nanos(4),
            linearization: Duration::from_nanos(8),
            isobar: Duration::from_nanos(16),
            codec: Duration::from_nanos(32),
        };
        let pairs = t.by_stage();
        let names: Vec<&str> = pairs.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, STAGES);
        let sum: Duration = pairs.iter().map(|(_, d)| *d).sum();
        assert_eq!(sum, t.total(), "by_stage must cover every timed field");
    }

    #[test]
    fn degenerate_stats_do_not_divide_by_zero() {
        let stats = CompressionStats {
            original_bytes: 0,
            compressed_bytes: 0,
            chunks: 0,
            own_index_chunks: 0,
            isobar_compressible_fraction: 0.0,
            timings: StageTimings::default(),
        };
        assert_eq!(stats.ratio(), 0.0);
        assert!(stats.throughput_mbps().is_infinite());
    }
}
