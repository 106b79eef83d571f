//! Table III: compression ratio (original and permuted layouts) and
//! (de)compression throughput, zlib vs PRIMACY, on all 20 datasets.
//!
//! Run with `cargo run --release -p primacy-bench --bin table3_compression`.
//! Columns mirror the paper's table; each measured value is printed next to
//! the paper's number so deviations are visible at a glance. Each
//! throughput cell is the median of [`ROUNDS`] rounds that alternate zlib
//! and PRIMACY. Expectations
//! (paper): PRIMACY wins CR on 19/20 datasets (all but msg_sppm), wins CTP
//! and DTP by 3–4× on average, and keeps its CR advantage on permuted data.

use primacy_bench::{dataset_elements, mbps, Comparison, Report};
use primacy_codecs::{Codec, CodecKind};
use primacy_core::{PrimacyCompressor, PrimacyConfig, StageTimings};
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

/// Timed rounds per throughput cell. Each cell is the median of its rounds,
/// and every round times zlib and PRIMACY back to back, so host drift falls
/// on both alike.
const ROUNDS: usize = 5;

/// Run `f` and return its result with its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// `[zlib CR, PRIMACY CR, zlib CTP, PRIMACY CTP, zlib DTP, PRIMACY DTP]` on
/// `bytes`, each throughput the median of `rounds` rounds, and the stage
/// timings of PRIMACY's median compress call. Every round checks that both
/// codecs round-trip.
fn measure(
    zlib: &dyn Codec,
    primacy: &PrimacyCompressor,
    bytes: &[u8],
    rounds: usize,
) -> ([f64; 6], StageTimings) {
    let mut secs = [(); 4].map(|()| Vec::with_capacity(rounds));
    let mut calls = Vec::with_capacity(rounds);
    let mut lens = (0, 0);
    for _ in 0..rounds {
        let (z, zc) = timed(|| zlib.compress(bytes).expect("zlib compress"));
        let ((p, stats), pc) =
            timed(|| primacy.compress_bytes_with_stats(bytes).expect("compress"));
        let (z_back, zd) = timed(|| zlib.decompress(&z).expect("zlib decompress"));
        let (p_back, pd) = timed(|| primacy.decompress_bytes(&p).expect("decompress"));
        assert_eq!(z_back, bytes, "codec roundtrip failed");
        assert_eq!(p_back, bytes, "primacy roundtrip failed");
        for (cell, t) in secs.iter_mut().zip([zc, pc, zd, pd]) {
            cell.push(t);
        }
        calls.push((pc, stats.timings));
        lens = (z.len(), p.len());
    }
    calls.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = bytes.len() as f64;
    let [zc, pc, zd, pd] = secs.map(|mut s| {
        s.sort_by(f64::total_cmp);
        n / 1e6 / s[s.len() / 2]
    });
    let ratios = [n / lens.0 as f64, n / lens.1 as f64];
    (
        [ratios[0], ratios[1], zc, pc, zd, pd],
        calls[calls.len() / 2].1,
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

        let ([zcr, pcr, zctp, pctp, zdtp, pdtp], timings) =
            measure(zlib.as_ref(), &primacy, &bytes, ROUNDS);
        // The permuted layout feeds only the ratio columns: one round.
        let ([zlcr, plcr, ..], _) = measure(zlib.as_ref(), &primacy, &perm_bytes, 1);
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
