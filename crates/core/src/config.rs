//! Pipeline configuration.

use crate::error::{PrimacyError, Result};
use primacy_codecs::CodecKind;

/// The chunk size used throughout the paper (§II-B): 3 MB, chosen because
/// compressor efficiency levels off there.
pub const DEFAULT_CHUNK_BYTES: usize = 3 * 1024 * 1024;

/// How the transformed ID matrix is handed to the backend compressor
/// (§II-D, ablated in §IV-H).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linearization {
    /// Row-major: IDs in element order (the naive layout).
    Row,
    /// Column-major: all first ID bytes, then all second ID bytes — the
    /// paper's choice, worth 8–10 % CR and ~20 % throughput on the IDs.
    Column,
}

/// How the per-chunk index (ID → byte-sequence table) is managed (§II-F).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexPolicy {
    /// Build and store an index for every chunk — the paper's
    /// implementation.
    PerChunk,
    /// Reuse the previous chunk's index while the frequency vectors of the
    /// incoming chunk correlate with the indexed chunk at or above the
    /// threshold (the paper's §II-F "future work" design, implemented here
    /// and ablated in the bench suite).
    Reuse {
        /// Minimum Pearson correlation between frequency vectors for reuse.
        correlation_threshold: f64,
    },
}

/// How ISOBAR decides whether a byte-column is compressible (§II-G).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IsobarClassifier {
    /// Sampled Shannon entropy of the column's byte distribution; columns
    /// under the threshold go to the codec. One interpretable knob with the
    /// same signal as the original's bit analysis.
    ByteEntropy,
    /// The original ISOBAR criterion: per-bit-position frequency analysis.
    /// A bit position is "skewed" when its majority value appears with
    /// probability ≥ `skew_threshold`; a column is compressible when at
    /// least `min_skewed_bits` of its 8 positions are skewed.
    BitFrequency {
        /// Majority probability above which a bit position counts as skewed.
        skew_threshold: f64,
        /// Skewed positions required to classify the column compressible.
        min_skewed_bits: usize,
    },
}

/// ISOBAR analyzer settings (§II-G).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsobarConfig {
    /// Run the analyzer at all. Disabled, every mantissa column is
    /// compressed (what vanilla zlib-the-whole-chunk effectively does).
    pub enabled: bool,
    /// Sample every `sample_stride`-th element during analysis; 1 analyzes
    /// everything, larger strides trade accuracy for speed.
    pub sample_stride: usize,
    /// A byte-column is classified compressible when its sampled byte
    /// entropy is below this many bits (8 = uniformly random). The paper
    /// derives its thresholds empirically; 7.9 keeps effectively-random
    /// columns out of the compressor while letting structured columns in.
    /// Only used by [`IsobarClassifier::ByteEntropy`].
    pub entropy_threshold_bits: f64,
    /// Classification criterion.
    pub classifier: IsobarClassifier,
}

impl Default for IsobarConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            sample_stride: 8,
            entropy_threshold_bits: 7.9,
            classifier: IsobarClassifier::ByteEntropy,
        }
    }
}

impl IsobarConfig {
    /// The original paper's bit-frequency criterion with its empirical-style
    /// defaults.
    pub fn bit_frequency() -> Self {
        Self {
            classifier: IsobarClassifier::BitFrequency {
                skew_threshold: 0.6,
                min_skewed_bits: 2,
            },
            ..Default::default()
        }
    }
}

/// Resolve a user-facing thread-count knob: `0` means auto-detect from
/// [`std::thread::available_parallelism`], any other value is taken as-is.
///
/// The result is always ≥ 1 — on machines or cgroups where parallelism
/// cannot be detected the fallback is one thread, never zero, so every
/// consumer (CLI `--threads`, pipeline workers, the serve worker pool) can
/// size pools and bounded queues without a zero-width deadlock. This is
/// the single shared definition; entry points must not re-derive it.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
    .max(1)
}

/// The value after `flag` in a command line's `args`, parsed as `T`; `None`
/// when the flag is absent, has no value after it, or the value does not
/// parse. The one flag parser of the `primacy`, `primacy-serve` and
/// `primacy-loadgen` binaries.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Full pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimacyConfig {
    /// Chunk size in bytes (rounded down to a whole number of elements).
    pub chunk_bytes: usize,
    /// Backend "solver" codec. The paper uses zlib.
    pub codec: CodecKind,
    /// Layout of the transformed IDs.
    pub linearization: Linearization,
    /// Per-chunk index policy.
    pub index_policy: IndexPolicy,
    /// ISOBAR analyzer settings for the mantissa bytes.
    pub isobar: IsobarConfig,
    /// Bytes per element (8 for f64, 4 for f32).
    pub element_size: usize,
    /// High-order bytes fed to the ID mapper (2 for f64, 1 for f32).
    pub hi_bytes: usize,
}

impl Default for PrimacyConfig {
    fn default() -> Self {
        Self {
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            codec: CodecKind::Zlib,
            linearization: Linearization::Column,
            index_policy: IndexPolicy::PerChunk,
            isobar: IsobarConfig::default(),
            element_size: 8,
            hi_bytes: 2,
        }
    }
}

impl PrimacyConfig {
    /// Configuration for single-precision data (1 high-order byte).
    pub fn f32() -> Self {
        Self {
            element_size: 4,
            hi_bytes: 1,
            ..Self::default()
        }
    }

    /// Number of whole elements per chunk.
    pub fn chunk_elements(&self) -> usize {
        (self.chunk_bytes / self.element_size).max(1)
    }

    /// Validate invariants; called by the pipeline constructor.
    pub fn validate(&self) -> Result<()> {
        if self.element_size == 0 || self.element_size > 16 {
            return Err(PrimacyError::InvalidConfig("element_size must be 1..=16"));
        }
        if self.hi_bytes == 0 || self.hi_bytes > 2 {
            return Err(PrimacyError::InvalidConfig(
                "hi_bytes must be 1 or 2 (ID domain is at most 65536)",
            ));
        }
        if self.hi_bytes >= self.element_size {
            return Err(PrimacyError::InvalidConfig(
                "hi_bytes must be smaller than element_size",
            ));
        }
        if self.chunk_bytes < self.element_size {
            return Err(PrimacyError::InvalidConfig(
                "chunk_bytes must hold at least one element",
            ));
        }
        if self.isobar.sample_stride == 0 {
            return Err(PrimacyError::InvalidConfig("sample_stride must be >= 1"));
        }
        if let IndexPolicy::Reuse {
            correlation_threshold,
        } = self.index_policy
        {
            if !(0.0..=1.0).contains(&correlation_threshold) {
                return Err(PrimacyError::InvalidConfig(
                    "correlation_threshold must be in [0, 1]",
                ));
            }
        }
        if !(0.0..=8.0).contains(&self.isobar.entropy_threshold_bits) {
            return Err(PrimacyError::InvalidConfig(
                "entropy_threshold_bits must be in [0, 8]",
            ));
        }
        if let IsobarClassifier::BitFrequency {
            skew_threshold,
            min_skewed_bits,
        } = self.isobar.classifier
        {
            if !(0.5..=1.0).contains(&skew_threshold) {
                return Err(PrimacyError::InvalidConfig(
                    "skew_threshold must be in [0.5, 1]",
                ));
            }
            if min_skewed_bits > 8 {
                return Err(PrimacyError::InvalidConfig(
                    "min_skewed_bits must be at most 8",
                ));
            }
        }
        Ok(())
    }

    /// Number of low-order bytes per element.
    pub fn lo_bytes(&self) -> usize {
        self.element_size - self.hi_bytes
    }
}

#[cfg(test)]
#[expect(
    clippy::field_reassign_with_default,
    reason = "invalid-config construction is clearest as sequential assignments"
)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PrimacyConfig::default();
        assert_eq!(c.chunk_bytes, 3 * 1024 * 1024);
        assert_eq!(c.element_size, 8);
        assert_eq!(c.hi_bytes, 2);
        assert_eq!(c.lo_bytes(), 6);
        assert_eq!(c.codec, CodecKind::Zlib);
        assert_eq!(c.linearization, Linearization::Column);
        assert!(c.validate().is_ok());
        assert_eq!(c.chunk_elements(), 3 * 1024 * 1024 / 8);
    }

    #[test]
    fn f32_preset_is_valid() {
        let c = PrimacyConfig::f32();
        assert_eq!(c.element_size, 4);
        assert_eq!(c.hi_bytes, 1);
        assert_eq!(c.lo_bytes(), 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = PrimacyConfig::default();
        c.hi_bytes = 3;
        assert!(c.validate().is_err());

        let mut c = PrimacyConfig::default();
        c.hi_bytes = 0;
        assert!(c.validate().is_err());

        let mut c = PrimacyConfig::default();
        c.element_size = 2;
        c.hi_bytes = 2;
        assert!(c.validate().is_err());

        let mut c = PrimacyConfig::default();
        c.chunk_bytes = 4;
        assert!(c.validate().is_err());

        let mut c = PrimacyConfig::default();
        c.isobar.sample_stride = 0;
        assert!(c.validate().is_err());

        let mut c = PrimacyConfig::default();
        c.index_policy = IndexPolicy::Reuse {
            correlation_threshold: 1.5,
        };
        assert!(c.validate().is_err());

        let mut c = PrimacyConfig::default();
        c.isobar.entropy_threshold_bits = 9.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn resolve_threads_never_returns_zero() {
        assert!(resolve_threads(0) >= 1, "auto-detect floors at one");
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn parse_flag_extracts_typed_values() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = args(&[
            "compress",
            "in",
            "out",
            "--chunk-kb",
            "512",
            "--threads",
            "4",
        ]);
        assert_eq!(parse_flag::<usize>(&a, "--chunk-kb"), Some(512));
        assert_eq!(parse_flag::<usize>(&a, "--threads"), Some(4));
        assert_eq!(parse_flag::<usize>(&a, "--missing"), None);
        // Flag present but value unparsable.
        let a = args(&["x", "--threads", "lots"]);
        assert_eq!(parse_flag::<usize>(&a, "--threads"), None);
        // Flag at the end with no value.
        let a = args(&["x", "--threads"]);
        assert_eq!(parse_flag::<usize>(&a, "--threads"), None);
    }

    #[test]
    fn tiny_chunks_still_hold_one_element() {
        let mut c = PrimacyConfig::default();
        c.chunk_bytes = 8;
        assert!(c.validate().is_ok());
        assert_eq!(c.chunk_elements(), 1);
    }
}
