//! Table III: compression ratio (original and permuted layouts) and
//! (de)compression throughput, zlib vs PRIMACY, on all 20 datasets.
//!
//! Run with `cargo run --release -p primacy-bench --bin table3_compression`.
//! Columns mirror the paper's table; each measured value is printed next to
//! the paper's number so deviations are visible at a glance. Expectations
//! (paper): PRIMACY wins CR on 19/20 datasets (all but msg_sppm), wins CTP
//! and DTP by 3–4× on average, and keeps its CR advantage on permuted data.

use primacy_bench::{dataset_elements, mbps, Comparison, Report};
use primacy_codecs::{Codec, CodecKind};
use primacy_core::{PrimacyCompressor, PrimacyConfig};
use primacy_datagen::{permute, DatasetId};
use std::time::Instant;

struct Row {
    name: &'static str,
    zlib_cr: f64,
    primacy_cr: f64,
    zlib_lin_cr: f64,
    primacy_lin_cr: f64,
    zlib_ctp: f64,
    primacy_ctp: f64,
    zlib_dtp: f64,
    primacy_dtp: f64,
}

fn measure_codec(codec: &dyn Codec, bytes: &[u8]) -> (f64, f64, f64) {
    let t0 = Instant::now();
    let comp = codec.compress(bytes).expect("compress");
    let c_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let back = codec.decompress(&comp).expect("decompress");
    let d_secs = t0.elapsed().as_secs_f64();
    assert_eq!(back, bytes, "codec roundtrip failed");
    let n = bytes.len() as f64;
    (n / comp.len() as f64, n / 1e6 / c_secs, n / 1e6 / d_secs)
}

fn measure_primacy(
    compressor: &PrimacyCompressor,
    bytes: &[u8],
) -> (f64, f64, f64, primacy_core::StageTimings) {
    let t0 = Instant::now();
    let (comp, stats) = compressor
        .compress_bytes_with_stats(bytes)
        .expect("compress");
    let c_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let back = compressor.decompress_bytes(&comp).expect("decompress");
    let d_secs = t0.elapsed().as_secs_f64();
    assert_eq!(back, bytes, "primacy roundtrip failed");
    let n = bytes.len() as f64;
    (
        n / comp.len() as f64,
        n / 1e6 / c_secs,
        n / 1e6 / d_secs,
        stats.timings,
    )
}

fn main() {
    let n = dataset_elements();
    let zlib = CodecKind::Zlib.build();
    let primacy = PrimacyCompressor::new(PrimacyConfig::default());

    println!("Table III — zlib vs PRIMACY on 20 synthetic stand-in datasets ({n} doubles each)");
    println!("measured value | (paper value) — absolute throughputs differ from the 2012 Opteron;");
    println!("orderings and ratios are the comparison target\n");
    println!(
        "{:<14} | {:>7}{:>8} {:>7}{:>8} | {:>7}{:>8} {:>7}{:>8} | {:>9}{:>9} {:>9}{:>9} | {:>9}{:>9} {:>9}{:>9}",
        "dataset", "zCR", "(p)", "pCR", "(p)", "zCRperm", "(p)", "pCRperm", "(p)",
        "zCTP", "(p)", "pCTP", "(p)", "zDTP", "(p)", "pDTP", "(p)"
    );

    let mut report = Report::new("table3_compression");
    let mut rows = Vec::new();
    for id in DatasetId::ALL {
        let values = id.generate(n);
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let permuted = permute(&values);
        let perm_bytes: Vec<u8> = permuted.iter().flat_map(|v| v.to_le_bytes()).collect();

        let (zcr, zctp, zdtp) = measure_codec(zlib.as_ref(), &bytes);
        let (pcr, pctp, pdtp, timings) = measure_primacy(&primacy, &bytes);
        let (zlcr, _, _) = measure_codec(zlib.as_ref(), &perm_bytes);
        let (plcr, _, _, _) = measure_primacy(&primacy, &perm_bytes);
        report.push_stages(&format!("table3/{}", id.name()), timings.by_stage());

        let row = Row {
            name: id.name(),
            zlib_cr: zcr,
            primacy_cr: pcr,
            zlib_lin_cr: zlcr,
            primacy_lin_cr: plcr,
            zlib_ctp: zctp,
            primacy_ctp: pctp,
            zlib_dtp: zdtp,
            primacy_dtp: pdtp,
        };
        let p = id.spec().paper;
        for (metric, measured, paper) in [
            ("zlib_cr", row.zlib_cr, p.zlib_cr),
            ("primacy_cr", row.primacy_cr, p.primacy_cr),
            ("zlib_lin_cr", row.zlib_lin_cr, p.zlib_lin_cr),
            ("primacy_lin_cr", row.primacy_lin_cr, p.primacy_lin_cr),
        ] {
            report.push_record(
                Comparison {
                    key: format!("table3/{}/{metric}", row.name),
                    paper,
                    measured,
                }
                .to_value(),
            );
        }
        println!(
            "{:<14} | {:>7.2}({:>6.2}) {:>7.2}({:>6.2}) | {:>7.2}({:>6.2}) {:>7.2}({:>6.2}) | {}({:>7.1}) {}({:>7.1}) | {}({:>7.1}) {}({:>7.1})",
            row.name,
            row.zlib_cr, p.zlib_cr,
            row.primacy_cr, p.primacy_cr,
            row.zlib_lin_cr, p.zlib_lin_cr,
            row.primacy_lin_cr, p.primacy_lin_cr,
            mbps(row.zlib_ctp), p.zlib_ctp,
            mbps(row.primacy_ctp), p.primacy_ctp,
            mbps(row.zlib_dtp), p.zlib_dtp,
            mbps(row.primacy_dtp), p.primacy_dtp,
        );
        rows.push(row);
    }

    // Paper-shape summary (§IV-E/F and abstract claims).
    let cr_wins = rows.iter().filter(|r| r.primacy_cr > r.zlib_cr).count();
    let lin_wins = rows
        .iter()
        .filter(|r| r.primacy_lin_cr > r.zlib_lin_cr)
        .count();
    let mean_cr_gain: f64 = rows
        .iter()
        .map(|r| r.primacy_cr / r.zlib_cr - 1.0)
        .sum::<f64>()
        / rows.len() as f64;
    let mean_ctp_x: f64 =
        rows.iter().map(|r| r.primacy_ctp / r.zlib_ctp).sum::<f64>() / rows.len() as f64;
    let mean_dtp_x: f64 =
        rows.iter().map(|r| r.primacy_dtp / r.zlib_dtp).sum::<f64>() / rows.len() as f64;
    let sppm = rows.iter().find(|r| r.name == "msg_sppm").unwrap();

    println!();
    println!("shape checks vs paper:");
    println!(
        "  PRIMACY CR wins:            {cr_wins}/20 measured   (paper: 19/20, msg_sppm loses)"
    );
    println!(
        "  msg_sppm CR:                PRIMACY {:.2} vs zlib {:.2} (paper: 7.17 vs 7.42 — PRIMACY loses)",
        sppm.primacy_cr, sppm.zlib_cr
    );
    println!(
        "  mean CR improvement:        {:+.1}%          (paper: ~13%, up to 25%)",
        mean_cr_gain * 100.0
    );
    println!("  mean compression speedup:   {mean_ctp_x:.1}x           (paper: 3-4x)");
    println!("  mean decompression speedup: {mean_dtp_x:.1}x           (paper: 3-4x)");
    println!("  permuted-layout CR wins:    {lin_wins}/20 measured   (paper: 19/20)");
    report.push("summary/cr_wins", cr_wins as f64);
    report.push("summary/lin_wins", lin_wins as f64);
    report.push("summary/mean_cr_gain", mean_cr_gain);
    report.push("summary/mean_ctp_speedup", mean_ctp_x);
    report.push("summary/mean_dtp_speedup", mean_dtp_x);
    report.finish();
}
