//! ISOBAR analyzer and partitioner (§II-G; Schendel et al., ICDE 2012).
//!
//! The six low-order mantissa bytes of a double are usually too random for
//! an ID mapping to help — but not always uniformly so. ISOBAR samples each
//! byte-*column* of the N×6 mantissa matrix, estimates how compressible it
//! is, and partitions the columns into a *compressible* group (handed to the
//! backend codec) and an *incompressible* group (stored raw). Skipping the
//! codec on effectively-random bytes is where PRIMACY's 3–4× compression
//! throughput advantage over whole-chunk zlib comes from.
//!
//! The original uses bit-level frequency analysis against empirically fitted
//! thresholds; this implementation uses the sampled byte-entropy of each
//! column, which captures the same signal (a column of p≈0.5 bits has ≈8
//! bits of byte entropy) with one interpretable knob.

/// Per-column entropy measurements behind the classifier.
pub mod analysis;

use crate::config::IsobarConfig;
pub use analysis::{byte_entropy, ColumnReport};

/// The analyzer's verdict for one chunk's low-order matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct IsobarReport {
    /// Per-column diagnostics, in column order.
    pub columns: Vec<ColumnReport>,
    /// Bit `c` set ⇔ column `c` is classified compressible. Column counts
    /// are at most 15 (element_size ≤ 16), so a u16 mask suffices.
    pub mask: u16,
}

impl IsobarReport {
    /// Number of compressible columns.
    pub fn compressible_count(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Is column `c` compressible?
    pub fn is_compressible(&self, c: usize) -> bool {
        self.mask & (1 << c) != 0
    }

    /// Fraction of the matrix classified compressible — the α₂ parameter of
    /// the paper's performance model.
    pub fn compressible_fraction(&self) -> f64 {
        if self.columns.is_empty() {
            return 0.0;
        }
        self.compressible_count() as f64 / self.columns.len() as f64
    }
}

/// Analyze a row-major `rows`×`cols` low-order matrix.
pub fn analyze(lo: &[u8], rows: usize, cols: usize, cfg: &IsobarConfig) -> IsobarReport {
    assert_eq!(lo.len(), rows * cols);
    let mut columns = Vec::with_capacity(cols);
    let mut mask = 0u16;
    for c in 0..cols {
        let report = analysis::analyze_column(lo, rows, cols, c, cfg.sample_stride);
        let compressible = if !cfg.enabled {
            // Analyzer disabled: everything goes to the codec, mirroring
            // vanilla whole-chunk compression.
            true
        } else {
            match cfg.classifier {
                crate::config::IsobarClassifier::ByteEntropy => {
                    report.entropy_bits < cfg.entropy_threshold_bits
                }
                crate::config::IsobarClassifier::BitFrequency {
                    skew_threshold,
                    min_skewed_bits,
                } => report.skewed_bits(skew_threshold) >= min_skewed_bits,
            }
        };
        if compressible {
            mask |= 1 << c;
        }
        columns.push(report);
    }
    IsobarReport { columns, mask }
}

/// Split the matrix into `(compressible, incompressible)` buffers, each
/// holding its columns contiguously (column-major) in ascending column
/// order.
///
/// One sequential pass over the input, scattering into at most `cols`
/// sequential output streams (the cache-friendly orientation; a
/// column-at-a-time gather would walk the whole matrix once per column).
/// The decoder's inverse is the isobar step of [`crate::reassemble`].
pub fn partition(lo: &[u8], rows: usize, cols: usize, mask: u16) -> (Vec<u8>, Vec<u8>) {
    assert_eq!(lo.len(), rows * cols);
    let comp_cols = mask.count_ones() as usize;
    let mut compressible = vec![0u8; rows * comp_cols];
    let mut incompressible = vec![0u8; rows * (cols - comp_cols)];
    // Destination stream index per column: (into_compressible, stream_slot).
    let mut dest: Vec<(bool, usize)> = Vec::with_capacity(cols);
    let (mut ck, mut ik) = (0usize, 0usize);
    for c in 0..cols {
        if mask & (1 << c) != 0 {
            dest.push((true, ck));
            ck += 1;
        } else {
            dest.push((false, ik));
            ik += 1;
        }
    }
    // Blocked gather: within a block of rows every touched cache line stays
    // resident across the per-column passes.
    const BLOCK: usize = 4096;
    let mut start = 0usize;
    while start < rows {
        let end = (start + BLOCK).min(rows);
        let lo_block = &lo[start * cols..end * cols];
        for (c, &(to_comp, k)) in dest.iter().enumerate() {
            let dst = if to_comp {
                &mut compressible[k * rows + start..k * rows + end]
            } else {
                &mut incompressible[k * rows + start..k * rows + end]
            };
            for (slot, &b) in dst.iter_mut().zip(lo_block.iter().skip(c).step_by(cols)) {
                *slot = b;
            }
        }
        start = end;
    }
    (compressible, incompressible)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-major matrix whose column c is produced by `f(row, c)`.
    fn matrix(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> u8) -> Vec<u8> {
        let mut m = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                m.push(f(r, c));
            }
        }
        m
    }

    fn mixed_matrix(rows: usize) -> Vec<u8> {
        // Column 0: constant. Column 1: tiny alphabet. Column 2: LCG noise.
        let mut x = 12345u64;
        matrix(rows, 3, |r, c| match c {
            0 => 7,
            1 => (r % 4) as u8,
            _ => {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) as u8
            }
        })
    }

    #[test]
    fn analyzer_separates_structured_from_random() {
        let rows = 20_000;
        let m = mixed_matrix(rows);
        let cfg = IsobarConfig {
            sample_stride: 1,
            ..Default::default()
        };
        let report = analyze(&m, rows, 3, &cfg);
        assert!(report.is_compressible(0), "constant column must compress");
        assert!(report.is_compressible(1), "4-symbol column must compress");
        assert!(
            !report.is_compressible(2),
            "random column must be excluded (entropy {})",
            report.columns[2].entropy_bits
        );
        assert_eq!(report.compressible_count(), 2);
        assert!((report.compressible_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_analyzer_marks_everything_compressible() {
        let rows = 1000;
        let m = mixed_matrix(rows);
        let cfg = IsobarConfig {
            enabled: false,
            ..Default::default()
        };
        let report = analyze(&m, rows, 3, &cfg);
        assert_eq!(report.compressible_count(), 3);
    }

    #[test]
    fn sampling_stride_gives_same_verdict_here() {
        let rows = 50_000;
        let m = mixed_matrix(rows);
        let full = analyze(
            &m,
            rows,
            3,
            &IsobarConfig {
                sample_stride: 1,
                ..Default::default()
            },
        );
        let sampled = analyze(
            &m,
            rows,
            3,
            &IsobarConfig {
                sample_stride: 16,
                ..Default::default()
            },
        );
        assert_eq!(full.mask, sampled.mask);
    }

    #[test]
    fn partition_unpartition_roundtrip() {
        let rows = 997;
        let m = mixed_matrix(rows);
        for mask in [0b000u16, 0b001, 0b010, 0b101, 0b111] {
            let (comp, incomp) = partition(&m, rows, 3, mask);
            assert_eq!(comp.len(), rows * mask.count_ones() as usize);
            assert_eq!(comp.len() + incomp.len(), m.len());
            let back = crate::reassemble::reference::unpartition(&comp, &incomp, rows, 3, mask);
            assert_eq!(back, m, "mask {mask:03b}");
        }
    }

    #[test]
    fn partition_groups_columns_contiguously() {
        let m = matrix(4, 2, |r, c| (10 * c + r) as u8);
        let (comp, incomp) = partition(&m, 4, 2, 0b10);
        assert_eq!(comp, vec![10, 11, 12, 13]); // column 1
        assert_eq!(incomp, vec![0, 1, 2, 3]); // column 0
    }

    #[test]
    fn bit_frequency_classifier_agrees_on_clear_cases() {
        let rows = 20_000;
        let m = mixed_matrix(rows);
        let cfg = crate::config::IsobarConfig {
            sample_stride: 1,
            ..crate::config::IsobarConfig::bit_frequency()
        };
        let report = analyze(&m, rows, 3, &cfg);
        assert!(report.is_compressible(0), "constant column");
        assert!(report.is_compressible(1), "4-symbol column");
        assert!(!report.is_compressible(2), "random column");
    }

    #[test]
    fn bit_majority_values_are_sane() {
        let rows = 4096;
        let m = mixed_matrix(rows);
        let report = analyze(&m, rows, 3, &crate::config::IsobarConfig::default());
        // Constant column: all 8 bit positions fully determined.
        assert!(report.columns[0]
            .bit_majority
            .iter()
            .all(|&p| (p - 1.0).abs() < 1e-12));
        assert_eq!(report.columns[0].skewed_bits(0.99), 8);
        // Random column: most bit positions near 0.5.
        let random_skewed = report.columns[2].skewed_bits(0.6);
        assert!(random_skewed <= 1, "{random_skewed} skewed bits in noise");
    }

    #[test]
    fn empty_matrix_analysis() {
        let report = analyze(&[], 0, 6, &IsobarConfig::default());
        assert_eq!(report.columns.len(), 6);
        assert_eq!(report.compressible_fraction(), 1.0); // entropy 0 for empty
    }
}
