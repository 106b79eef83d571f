//! §IV-H ablation: byte-level organization of the transformed IDs.
//!
//! Two questions the paper answers and one it implies:
//! 1. Column vs row linearization of the ID matrix — paper: column order is
//!    worth 8–10 % compression ratio and ~20 % compression throughput on
//!    the identification values.
//! 2. Whether the *frequency ranking* itself matters — we compare the
//!    frequency-ranked ID assignment against an identity mapping (raw
//!    exponent bytes, split only) by disabling the remap via a value-order
//!    index.
//! 3. Mantissa-byte linearization is data-dependent and roughly a wash
//!    (paper) — exercised implicitly through ISOBAR's column grouping.

// Config tweaks read more clearly as sequential assignments here.

use primacy_bench::{dataset_bytes, dataset_elements, Report};
use primacy_codecs::{Codec, CodecKind};
use primacy_core::pipeline::precondition;
use primacy_core::split::split_hi_lo;
use primacy_core::{EncodeScratch, Linearization, PrimacyCompressor, PrimacyConfig};
use primacy_datagen::DatasetId;
use std::time::Instant;

/// Compress just the ID bytes of one dataset, returning (ratio, MB/s):
/// the raw hi bytes of the split for `None`, or the encoder's ranked IDs in
/// the given linearization.
fn id_bytes_experiment(
    bytes: &[u8],
    ranked_ids: Option<Linearization>,
    codec: &dyn Codec,
) -> (f64, f64) {
    let data = match ranked_ids {
        None => split_hi_lo(bytes, 8, 2).expect("aligned input").0,
        Some(linearization) => {
            let cfg = PrimacyConfig {
                linearization,
                ..Default::default()
            };
            precondition(&cfg, bytes, false, &mut EncodeScratch::new())
                .expect("aligned input")
                .ids
        }
    };
    let t0 = Instant::now();
    let comp = codec.compress(&data).expect("compress");
    let secs = t0.elapsed().as_secs_f64();
    (
        data.len() as f64 / comp.len() as f64,
        data.len() as f64 / 1e6 / secs,
    )
}

fn main() {
    let codec = CodecKind::Zlib.build();
    println!(
        "SIV-H ablation on the ID bytes ({} doubles/dataset)",
        dataset_elements()
    );
    println!(
        "{:<16} | {:>7} {:>7} {:>7} | {:>8} {:>8} | {:>8} {:>8}",
        "dataset", "rawCR", "rowCR", "colCR", "rowMB/s", "colMB/s", "colCR/row", "colTP/row"
    );
    let mut cr_gains = Vec::new();
    let mut tp_gains = Vec::new();
    for id in [
        DatasetId::GtsPhiL,
        DatasetId::GtsChkpZeon,
        DatasetId::FlashVelx,
        DatasetId::MsgSp,
        DatasetId::NumPlasma,
        DatasetId::ObsTemp,
        DatasetId::ObsError,
        DatasetId::NumComet,
    ] {
        let bytes = dataset_bytes(id);
        let (raw_cr, _) = id_bytes_experiment(&bytes, None, codec.as_ref());
        let (row_cr, row_tp) =
            id_bytes_experiment(&bytes, Some(Linearization::Row), codec.as_ref());
        let (col_cr, col_tp) =
            id_bytes_experiment(&bytes, Some(Linearization::Column), codec.as_ref());
        let cr_gain = col_cr / row_cr - 1.0;
        let tp_gain = col_tp / row_tp - 1.0;
        cr_gains.push(cr_gain);
        tp_gains.push(tp_gain);
        println!(
            "{:<16} | {:>7.2} {:>7.2} {:>7.2} | {:>8.1} {:>8.1} | {:>+7.1}% {:>+7.1}%",
            id.name(),
            raw_cr,
            row_cr,
            col_cr,
            row_tp,
            col_tp,
            cr_gain * 100.0,
            tp_gain * 100.0
        );
    }
    let mut report = Report::new("linearization_ablation");
    let mean_cr = cr_gains.iter().sum::<f64>() / cr_gains.len() as f64 * 100.0;
    let mean_tp = tp_gains.iter().sum::<f64>() / tp_gains.len() as f64 * 100.0;
    println!(
        "\ncolumn vs row on ID values: CR {mean_cr:+.1}% (paper: +8-10%), throughput {mean_tp:+.1}% (paper: ~+20%)"
    );
    println!("rawCR column shows the split-only baseline: the frequency ranking itself, not just the split, carries the gain.");
    report.push("summary/column_cr_gain_pct", mean_cr);
    report.push("summary/column_tp_gain_pct", mean_tp);

    // End-to-end check through the full pipeline.
    println!("\nfull-pipeline linearization check:");
    for id in [DatasetId::GtsPhiL, DatasetId::ObsTemp] {
        let bytes = dataset_bytes(id);
        for lin in [Linearization::Row, Linearization::Column] {
            let cfg = PrimacyConfig {
                linearization: lin,
                ..Default::default()
            };
            let c = PrimacyCompressor::new(cfg);
            let (out, stats) = c.compress_bytes_with_stats(&bytes).expect("compress");
            assert_eq!(
                c.decompress_bytes(&out).expect("roundtrip").len(),
                bytes.len()
            );
            println!(
                "  {:<14} {:?}: CR {:.3}, pipeline {:.1} MB/s",
                id.name(),
                lin,
                stats.ratio(),
                stats.throughput_mbps()
            );
            report.push(format!("{}/{lin:?}/cr", id.name()), stats.ratio());
        }
    }
    report.finish();
}
