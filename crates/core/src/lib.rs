//! PRIMACY — *PReconditioning Id-MApper for Compressing incompressibilitY*.
//!
//! A faithful reimplementation of the preconditioner from
//! *"Improving I/O Throughput with PRIMACY"* (IEEE CLUSTER 2012). PRIMACY
//! does not compress data itself; it rewrites hard-to-compress floating-point
//! data so that a standard byte-level compressor (zlib in the paper) becomes
//! both faster and more effective:
//!
//! 1. **Chunking** (§II-B): data is processed in 3 MB chunks for in-situ,
//!    low-memory operation.
//! 2. **High/low split** (§II-B): each 8-byte double is split into its 2
//!    high-order bytes (sign + exponent + leading mantissa bits — few unique
//!    values, skewed distribution) and 6 low-order mantissa bytes
//!    (near-random).
//! 3. **Frequency-ranked ID mapping** (§II-C): the unique high-order
//!    byte-sequences of a chunk are ranked by frequency and bijectively
//!    replaced by IDs (most frequent → 0), concentrating the byte histogram
//!    around zero.
//! 4. **Column linearization** (§II-D): the ID matrix is emitted
//!    column-by-column so runs of equal (mostly zero) bytes reach the
//!    compressor's run-length machinery.
//! 5. **Standard compression** (§II-E): any [`primacy_codecs::Codec`]
//!    finishes the job; the index (ID → byte-sequence table, §II-F) rides
//!    along as per-chunk metadata.
//! 6. **ISOBAR partitioning** (§II-G): the mantissa bytes are classified
//!    per byte-column; only columns that look compressible are compressed,
//!    the rest are stored raw, saving the compressor's time.
//!
//! The top-level entry point is [`pipeline::PrimacyCompressor`]:
//!
//! ```
//! use primacy_core::{PrimacyCompressor, PrimacyConfig};
//!
//! let values: Vec<f64> = (0..100_000).map(|i| (i as f64 * 0.01).sin()).collect();
//! let compressor = PrimacyCompressor::new(PrimacyConfig::default());
//! let compressed = compressor.compress_f64(&values).unwrap();
//! let restored = compressor.decompress_f64(&compressed).unwrap();
//! assert_eq!(restored, values);
//! ```

/// Compressibility diagnostics over raw element buffers.
pub mod analysis;
/// Seekable chunked archives with random element access.
pub mod archive;
/// Compressor configuration and tuning knobs.
pub mod config;
/// Error type and result alias for the whole pipeline.
pub mod error;
/// Streaming container layout, varints, and the chunk cursor.
pub mod format;
/// Frequency tables feeding the ID-mapper.
pub mod freq;
/// The preconditioning ID-mapper itself.
pub mod idmap;
/// Isobaric column classification (compressible vs. incompressible).
pub mod isobar;
/// Row/column linearization of the hi-byte matrix.
pub mod linearize;
/// The one ordered chunk-parallel engine behind every parallel path.
mod par;
/// The end-to-end compression pipeline.
pub mod pipeline;
/// The fused decode-side inverse of split, ID map, linearization and ISOBAR.
pub mod reassemble;
/// Hi/lo byte-plane splitting.
pub mod split;
/// Per-call compression statistics (`CompressionStats`), per-stage wall
/// times (`StageTimings`) and the stage span names.
pub mod stats;
/// `std::io` adapters over archives.
pub mod stream;

pub use archive::{ArchiveReader, ArchiveWriter};
pub use config::{
    parse_flag, resolve_threads, IndexPolicy, IsobarClassifier, IsobarConfig, Linearization,
    PrimacyConfig,
};
pub use error::{PrimacyError, Result};
pub use pipeline::{DecodeScratch, EncodeScratch, PrimacyCompressor};
pub use stats::{CompressionStats, StageTimings, STAGES};
pub use stream::ElementReader;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_doc_example_works() {
        let values: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.01).sin()).collect();
        let compressor = PrimacyCompressor::new(PrimacyConfig::default());
        let compressed = compressor.compress_f64(&values).unwrap();
        let restored = compressor.decompress_f64(&compressed).unwrap();
        assert_eq!(restored, values);
    }
}
