//! Measure the model's machine-dependent inputs on the running build.
//!
//! The paper measures `Tprec`, `Tcomp`, the compression ratios and the
//! compressible fractions on Jaguar's Opterons; here they are measured on
//! the host machine with the same code paths the benchmarks exercise, then
//! fed to both the analytical model and the cluster simulator.

use crate::model::ModelInputs;
use primacy_codecs::Codec;
use primacy_core::{Linearization, PrimacyCompressor, PrimacyConfig, PrimacyError, Result};
use primacy_trace::json::{self, Value};
use std::time::Instant;

/// Machine-measured rates and ratios for one (data, method) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRates {
    /// Preconditioner throughput, bytes/s (forward direction).
    pub t_prec: f64,
    /// Backend compressor throughput over the bytes it actually touched.
    pub t_comp: f64,
    /// Decompression-side codec throughput.
    pub t_decomp: f64,
    /// Inverse-preconditioner throughput.
    pub t_prec_inv: f64,
    /// Compressed/original ratio on the high-order section (σho), including
    /// the index metadata.
    pub sigma_ho: f64,
    /// Compressed/original ratio on the compressible low-order bytes (σlo).
    pub sigma_lo: f64,
    /// Fraction of the chunk routed through the ID mapper (α1).
    pub alpha1: f64,
    /// Compressible fraction of the low-order bytes (α2).
    pub alpha2: f64,
    /// Whole-pipeline compression ratio (original/compressed).
    pub ratio: f64,
    /// Whole-pipeline compression throughput, bytes/s.
    pub compress_bps: f64,
    /// Whole-pipeline decompression throughput, bytes/s.
    pub decompress_bps: f64,
}

/// Run the PRIMACY pipeline over `bytes` once and extract model inputs.
///
/// Errors propagate from the pipeline itself: invalid measurement input
/// surfaces as the same [`PrimacyError`] the production path would return.
pub fn measure_primacy(config: &PrimacyConfig, bytes: &[u8]) -> Result<MeasuredRates> {
    let compressor = PrimacyCompressor::new(config.clone());
    let t0 = Instant::now();
    let (compressed, stats) = compressor.compress_bytes_with_stats(bytes)?;
    let compress_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (restored, dec_stats) = compressor.decompress_bytes_with_stats(&compressed)?;
    let decompress_secs = t0.elapsed().as_secs_f64();
    if restored.len() != bytes.len() {
        return Err(PrimacyError::Format("round trip changed the byte count"));
    }

    let alpha1 = config.hi_bytes as f64 / config.element_size as f64;
    let alpha2 = stats.isobar_compressible_fraction;

    // Section ratios: approximate σho from the overall split. The container
    // interleaves sections per chunk, so recover them by re-running the
    // codec on representative sections would double-measure; instead derive
    // them from the aggregate accounting: compressed = σho·α1·N +
    // σlo·α2·(1−α1)·N + (1−α2)(1−α1)·N + δ. We attribute the ID-side ratio
    // directly by compressing one chunk's hi section, which is cheap.
    let (sigma_ho, sigma_lo) = section_ratios(config, bytes)?;

    let prec_secs = stats.timings.preconditioner().as_secs_f64();
    let codec_secs = stats.timings.codec.as_secs_f64();
    // Decode-side attribution from the measured per-stage timings: codec
    // time is the decompressor proper, everything else is the inverse
    // preconditioner (the fused reassembly pass).
    let dec_codec_secs = dec_stats.timings.codec.as_secs_f64().max(1e-9);
    let dec_prec_secs = (decompress_secs - dec_codec_secs).max(1e-9);
    let n = bytes.len().max(1) as f64;
    Ok(MeasuredRates {
        t_prec: rate(n, prec_secs),
        t_comp: rate(codec_touched_bytes(alpha1, alpha2, n), codec_secs),
        t_decomp: rate(codec_touched_bytes(alpha1, alpha2, n), dec_codec_secs),
        t_prec_inv: rate(n, dec_prec_secs),
        sigma_ho,
        sigma_lo,
        alpha1,
        alpha2,
        ratio: stats.ratio(),
        compress_bps: rate(n, compress_secs),
        decompress_bps: rate(n, decompress_secs),
    })
}

/// Bytes the backend codec actually processes under the ISOBAR partition.
fn codec_touched_bytes(alpha1: f64, alpha2: f64, n: f64) -> f64 {
    (alpha1 + alpha2 * (1.0 - alpha1)) * n
}

fn rate(bytes: f64, secs: f64) -> f64 {
    if secs <= 0.0 {
        f64::INFINITY
    } else {
        bytes / secs
    }
}

/// Compress one chunk's high and low sections separately to estimate σho
/// and σlo.
fn section_ratios(config: &PrimacyConfig, bytes: &[u8]) -> Result<(f64, f64)> {
    use primacy_core::{freq::FreqTable, idmap::IdMap, isobar, linearize, split};
    let chunk_len = (config.chunk_elements() * config.element_size).min(bytes.len());
    let chunk = &bytes[..chunk_len - chunk_len % config.element_size];
    if chunk.is_empty() {
        return Ok((1.0, 1.0));
    }
    let codec = config.codec.build();
    let (mut hi, lo) = split::split_hi_lo(chunk, config.element_size, config.hi_bytes)?;
    let n = chunk.len() / config.element_size;
    let freq = FreqTable::from_hi_matrix(&hi, config.hi_bytes);
    let map = IdMap::from_freq(&freq, config.hi_bytes)?;
    map.encode_hi(&mut hi)?;
    let hi_lin = match config.linearization {
        Linearization::Row => hi,
        Linearization::Column => linearize::to_columns(&hi, n, config.hi_bytes),
    };
    let hi_comp = codec.compress(&hi_lin)?;
    let sigma_ho = (hi_comp.len() + map.serialized_len()) as f64 / hi_lin.len().max(1) as f64;

    let lo_cols = config.lo_bytes();
    let report = isobar::analyze(&lo, n, lo_cols, &config.isobar);
    let (compressible, _raw) = isobar::partition(&lo, n, lo_cols, report.mask);
    let sigma_lo = if compressible.is_empty() {
        1.0
    } else {
        let lo_comp = codec.compress(&compressible)?;
        lo_comp.len() as f64 / compressible.len() as f64
    };
    Ok((sigma_ho.min(1.5), sigma_lo.min(1.5)))
}

/// Measure a vanilla whole-buffer codec: returns `(sigma, compress_bps,
/// decompress_bps)`.
///
/// Errors propagate from the codec; a round trip that changes the byte
/// count reports [`PrimacyError::Format`].
pub fn measure_vanilla(codec: &dyn Codec, bytes: &[u8]) -> Result<(f64, f64, f64)> {
    let t0 = Instant::now();
    let compressed = codec.compress(bytes)?;
    let c_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let restored = codec.decompress(&compressed)?;
    let d_secs = t0.elapsed().as_secs_f64();
    if restored.len() != bytes.len() {
        return Err(PrimacyError::Format("round trip changed the byte count"));
    }
    let n = bytes.len().max(1) as f64;
    Ok((
        compressed.len() as f64 / n,
        rate(n, c_secs),
        rate(n, d_secs),
    ))
}

/// Per-stage throughputs loaded from a persisted benchmark report
/// (`results/BENCH_throughput.json`), so the model runs on *this machine's*
/// measured rates rather than re-measuring (or worse, guessing Jaguar's).
///
/// The report is the shape [`primacy_trace::json::Report`] writes:
/// `{"experiment": ..., "records": [{"key": "...", "value": N}, ...]}`,
/// read through the same codec.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    records: Vec<(String, f64)>,
}

impl Calibration {
    /// Parse a benchmark report document. Every record must carry a string
    /// `key` and a finite numeric `value` of its own.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = json::parse(text)
            .map_err(|_| PrimacyError::Format("calibration report is not valid JSON"))?;
        let records = doc
            .get("records")
            .and_then(Value::as_array)
            .ok_or(PrimacyError::Format("calibration report has no records"))?
            .iter()
            .map(|record| {
                let key = record
                    .get("key")
                    .and_then(Value::as_str)
                    .ok_or(PrimacyError::Format(
                        "calibration record key is not a string",
                    ))?;
                let value = record
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or(PrimacyError::Format("calibration record has no value"))?;
                if !value.is_finite() {
                    return Err(PrimacyError::Format("calibration value is not finite"));
                }
                Ok((key.to_string(), value))
            })
            .collect::<Result<Vec<_>>>()?;
        if records.is_empty() {
            return Err(PrimacyError::Format("calibration report has no records"));
        }
        Ok(Self { records })
    }

    /// Load and parse a report file (e.g. `results/BENCH_throughput.json`).
    pub fn from_path(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|_| PrimacyError::Format("calibration report is unreadable"))?;
        Self::from_json(&text)
    }

    /// Look up one record by its full key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.records.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Whole-pipeline compression throughput for `corpus`, bytes/s.
    pub fn compress_bps(&self, corpus: &str) -> Option<f64> {
        self.get(&format!("throughput/{corpus}/primacy/compress_mbps"))
            .map(|mbps| mbps * 1e6)
    }

    /// Whole-pipeline decompression throughput for `corpus`, bytes/s.
    /// (Named after [`MeasuredRates::t_decomp`]'s vocabulary: this is a
    /// calibration lookup, not a decode entry point.)
    pub fn decomp_bps(&self, corpus: &str) -> Option<f64> {
        self.get(&format!("throughput/{corpus}/primacy/decompress_mbps"))
            .map(|mbps| mbps * 1e6)
    }

    /// Whole-pipeline compression ratio (original/compressed) for `corpus`.
    pub fn ratio(&self, corpus: &str) -> Option<f64> {
        self.get(&format!("throughput/{corpus}/primacy/ratio"))
    }

    /// All record keys, for discovery and diagnostics.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.records.iter().map(|(k, _)| k.as_str())
    }
}

/// Predicted wall-clock for one archive write, bulk-synchronous vs
/// overlapped, from calibrated stage rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritePrediction {
    /// Sequential baseline: compression and sink writes pay serially.
    pub bulk_secs: f64,
    /// Double-buffered pipeline: the shorter stage hides behind the longer.
    pub overlapped_secs: f64,
    /// `bulk_secs / overlapped_secs`.
    pub speedup: f64,
}

/// Model one archive write through the double-buffered [`ArchiveWriter`]
/// pipeline.
///
/// Bulk-synchronous cost is the serial sum `N/Tc + (N/ratio)/Tw`. The
/// overlapped writer compresses on `threads` workers while a dedicated
/// writer thread drains sections, so steady state costs the *maximum* of the
/// two stage times, plus a one-chunk pipeline fill before the writer has
/// anything to flush. Rates come from [`Calibration`] (measured) or
/// [`measure_primacy`] (re-measured); either way they are this machine's.
///
/// [`ArchiveWriter`]: primacy_core::ArchiveWriter
pub fn predict_archive_write(
    input_bytes: f64,
    ratio: f64,
    compress_bps: f64,
    write_bps: f64,
    threads: usize,
    chunk_bytes: f64,
) -> WritePrediction {
    let compressed = input_bytes / ratio.max(1e-9);
    let compress_secs = input_bytes / compress_bps.max(1e-9);
    let write_secs = compressed / write_bps.max(1e-9);
    let bulk_secs = compress_secs + write_secs;
    let fill_secs = chunk_bytes.min(input_bytes) / compress_bps.max(1e-9);
    let overlapped_secs = (compress_secs / threads.max(1) as f64).max(write_secs) + fill_secs;
    WritePrediction {
        bulk_secs,
        overlapped_secs,
        speedup: bulk_secs / overlapped_secs.max(1e-12),
    }
}

impl MeasuredRates {
    /// Assemble full model inputs from these rates plus cluster parameters.
    pub fn to_model_inputs(
        &self,
        cluster: crate::model::ClusterParams,
        chunk_bytes: f64,
        metadata_bytes: f64,
    ) -> ModelInputs {
        ModelInputs {
            cluster,
            chunk_bytes,
            metadata_bytes,
            alpha1: self.alpha1,
            alpha2: self.alpha2,
            sigma_ho: self.sigma_ho,
            sigma_lo: self.sigma_lo,
            t_prec: self.t_prec,
            t_comp: self.t_comp,
            t_decomp: self.t_decomp,
            t_prec_inv: self.t_prec_inv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primacy_codecs::CodecKind;

    fn sample_bytes(n: usize) -> Vec<u8> {
        let mut x = 3u64;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                1.0 + (x >> 12) as f64 / (1u64 << 52) as f64
            })
            .flat_map(|v: f64| v.to_le_bytes())
            .collect()
    }

    #[test]
    fn primacy_measurement_is_plausible() {
        let cfg = PrimacyConfig::default();
        let bytes = sample_bytes(100_000);
        let m = measure_primacy(&cfg, &bytes).unwrap();
        assert!((m.alpha1 - 0.25).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&m.alpha2));
        assert!(
            m.sigma_ho < 0.8,
            "hi bytes must compress, σho = {}",
            m.sigma_ho
        );
        assert!(m.ratio > 1.0);
        assert!(m.t_prec.is_finite() && m.t_prec > 0.0);
        assert!(m.compress_bps > 0.0 && m.decompress_bps > 0.0);
    }

    #[test]
    fn sigma_ho_follows_the_linearization() {
        let bytes = primacy_datagen::DatasetId::GtsPhiL.generate_bytes(1 << 14);
        let sigma_ho = |linearization| {
            let cfg = PrimacyConfig {
                linearization,
                ..PrimacyConfig::default()
            };
            measure_primacy(&cfg, &bytes).unwrap().sigma_ho
        };
        let row = sigma_ho(Linearization::Row);
        let column = sigma_ho(Linearization::Column);
        assert!(row > column, "row σho {row} vs column σho {column}");
    }

    #[test]
    fn vanilla_measurement_is_plausible() {
        let codec = CodecKind::Zlib.build();
        let bytes = sample_bytes(50_000);
        let (sigma, cbps, dbps) = measure_vanilla(codec.as_ref(), &bytes).unwrap();
        assert!(sigma > 0.5 && sigma <= 1.05, "sigma {sigma}");
        assert!(cbps > 0.0 && dbps > 0.0);
    }

    #[test]
    fn calibration_parses_bench_report_shape() {
        let doc = r#"{"experiment":"throughput","records":[
            {"key":"throughput/random/primacy/compress_mbps","value":150.75},
            {"key":"throughput/random/primacy/decompress_mbps","value":900.5},
            {"key":"throughput/random/primacy/ratio","value":1.002}]}"#;
        let cal = Calibration::from_json(doc).unwrap();
        assert_eq!(cal.compress_bps("random"), Some(150.75e6));
        assert_eq!(cal.decomp_bps("random"), Some(900.5e6));
        assert_eq!(cal.ratio("random"), Some(1.002));
        assert_eq!(cal.get("throughput/none/primacy/ratio"), None);
        assert_eq!(cal.keys().count(), 3);
    }

    #[test]
    fn calibration_rejects_malformed_reports() {
        assert!(Calibration::from_json("{}").is_err());
        assert!(Calibration::from_json(r#"{"records":[{"key":"a"}]}"#).is_err());
        assert!(Calibration::from_json(r#"{"key":"a","value":"x"}"#).is_err());
    }

    #[test]
    fn calibration_reads_each_record_by_itself() {
        // A record without a `value` is an error, never the next record's.
        let pair = r#"{"records":[{"key":"a","paper":1.5,"measured":2.0},{"key":"b","value":5}]}"#;
        assert!(Calibration::from_json(pair).is_err());
        // Keys are JSON strings: escapes decode, quotes do not end them.
        let cal = Calibration::from_json(r#"{"records":[{"key":"x\"y","value":1}]}"#).unwrap();
        assert_eq!(cal.get("x\"y"), Some(1.0));
        assert_eq!(cal.keys().count(), 1);
        // An out-of-range number parses as inf and must still be refused.
        assert!(Calibration::from_json(r#"{"key":"a","value":1e999}"#).is_err());
        assert!(Calibration::from_json(r#"{"records":[{"key":"a","value":1e999}]}"#).is_err());
    }

    #[test]
    fn overlap_prediction_hides_shorter_stage() {
        // 1 GB at 100 MB/s compress, 2:1 ratio, 500 MB/s sink: compression
        // dominates, so overlap approaches the compression time alone.
        let p = predict_archive_write(1e9, 2.0, 100e6, 500e6, 1, 3e6);
        assert!(p.bulk_secs > p.overlapped_secs);
        assert!((p.bulk_secs - 11.0).abs() < 1e-6);
        assert!(p.overlapped_secs < 10.1 && p.overlapped_secs >= 10.0);
        assert!(p.speedup > 1.0);
        // More compress workers shift the bottleneck to the sink.
        let p4 = predict_archive_write(1e9, 2.0, 100e6, 500e6, 4, 3e6);
        assert!(p4.overlapped_secs < p.overlapped_secs);
        assert!(p4.overlapped_secs >= 2.5); // write_secs = 1.0, compress/4 = 2.5
    }

    #[test]
    fn to_model_inputs_passthrough() {
        let cfg = PrimacyConfig::default();
        let bytes = sample_bytes(20_000);
        let m = measure_primacy(&cfg, &bytes).unwrap();
        let inputs = m.to_model_inputs(Default::default(), 3e6, 4096.0);
        assert_eq!(inputs.alpha1, m.alpha1);
        assert_eq!(inputs.sigma_ho, m.sigma_ho);
        assert!(inputs.effective_ratio() > 0.5);
    }
}
