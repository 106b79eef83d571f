//! End-to-end compression/decompression throughput in MB/s — per pipeline
//! stage and per backend codec — on a corpus set spanning the compressibility
//! spectrum.
//!
//! This is the throughput trajectory the ROADMAP's "as fast as the hardware
//! allows" goal is measured against: `BENCH_throughput.json` (written when
//! `PRIMACY_BENCH_JSON` is set) records one `throughput/...` key per metric so
//! successive runs can be diffed. The paper sells PRIMACY on compression
//! *speed* as much as ratio (§III, Table III); ISOBAR's premise is that
//! hard-to-compress bytes should cost near-zero CPU — the `random` corpus row
//! is the direct probe of that claim.
//!
//! Run with `cargo run --release -p primacy-bench --bin throughput`.
//! `-- --smoke` runs a tiny-input self-check (used by ci.sh): it validates the
//! report schema, asserts every throughput is a positive number below
//! 10⁶ MB/s, and gates every per-corpus compression ratio against the
//! checked-in `results/ratio-baseline.json` (±0.5% relative). Speed is
//! machine-dependent and stays report-only; ratios are deterministic, so a
//! drift means the encoder's output actually changed — refresh the baseline
//! intentionally with `-- --write-ratio-baseline` when a ratio improvement is
//! the point of a change.
//!
//! Stage MB/s figures divide the corpus size by that stage's wall time, so
//! they read as "the throughput the pipeline would have if only this stage
//! existed" — the bottleneck stage is the one closest to the end-to-end row.
//! A stage a direction never runs (`freq` on decompress) gets no record.

use primacy_bench::json::{self, Value};
use primacy_bench::{dataset_elements, harness, mbps, rule, Report};
use primacy_codecs::CodecKind;
use primacy_core::{PrimacyCompressor, PrimacyConfig, StageTimings, STAGES};
use primacy_datagen::{DatasetId, Rng};

/// One benchmark corpus: a name for report keys plus its raw element bytes.
struct Corpus {
    name: &'static str,
    bytes: Vec<u8>,
}

/// Corpus set: two dataset stand-ins with structure for the preconditioner to
/// exploit, one quantized-tail dataset, and a fully random corpus — the
/// "incompressible-heavy" case where every low-order byte is noise and the
/// encoder's only winning move is to get out of the way quickly.
fn corpora(elements: usize) -> Vec<Corpus> {
    let mut rng = Rng::seed_from_u64(0x7470_5f72_616e_646f); // "tp_rando"
    let mut random = vec![0u8; elements * 8];
    rng.fill_bytes(&mut random);
    vec![
        Corpus {
            name: "gts_phi_l",
            bytes: DatasetId::GtsPhiL.generate_bytes(elements),
        },
        Corpus {
            name: "num_plasma",
            bytes: DatasetId::NumPlasma.generate_bytes(elements),
        },
        Corpus {
            name: "obs_error",
            bytes: DatasetId::ObsError.generate_bytes(elements),
        },
        Corpus {
            name: "random",
            bytes: random,
        },
    ]
}

/// Codecs measured standalone (fed the raw corpus, no preconditioner).
const CODECS: [CodecKind; 3] = [CodecKind::Zlib, CodecKind::Lzr, CodecKind::Bwt];

/// Checked-in per-corpus ratio baseline consumed by the `--smoke` gate.
const RATIO_BASELINE: &str = "results/ratio-baseline.json";
/// Relative drift allowed before the ratio gate fails. Compression is
/// deterministic, so this only absorbs float formatting, not real variance.
const RATIO_TOLERANCE: f64 = 0.005;
/// Ceiling of the `--smoke` gate on every MB/s record: far above any real
/// rate (the fastest smoke stage runs at tens of GB/s), so a record above it
/// is a measurement bug such as a rate over a zero-time stage.
const MAX_PLAUSIBLE_MBPS: f64 = 1e6;

fn per_stage_mbps(
    report: &mut Report,
    corpus: &str,
    dir: &str,
    bytes: usize,
    runs: &[StageTimings],
) {
    // Per-stage MEDIAN over the instrumented passes: a single pass is at the
    // mercy of frequency scaling and cache state, and the stage rows are what
    // the throughput-regression comparisons read, so they get the same
    // robustness treatment the end-to-end rows get from `harness::measure`.
    let stages = runs[0].by_stage();
    for (idx, (stage, _)) in stages.iter().enumerate() {
        let mut secs: Vec<f64> = runs
            .iter()
            .map(|t| t.by_stage()[idx].1.as_secs_f64())
            .collect();
        secs.sort_by(f64::total_cmp);
        let median = secs[secs.len() / 2];
        // A stage this direction never runs (`freq` on decode) measured no
        // time, so it has no throughput to record.
        if median == 0.0 {
            continue;
        }
        report.push(
            format!("throughput/{corpus}/stage/{stage}/{dir}_mbps"),
            bytes as f64 / 1e6 / median,
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let write_baseline = std::env::args().any(|a| a == "--write-ratio-baseline");
    let elements = if smoke || write_baseline {
        // Small enough for CI, large enough to span several deflate blocks
        // and exercise every stage. The baseline is written at the same size
        // the smoke gate measures, so the two always compare like for like.
        1 << 14
    } else {
        dataset_elements()
    };
    if std::env::var_os("PRIMACY_BENCH_SAMPLES").is_none() {
        // Throughput rows are medians; a handful of samples is plenty and
        // keeps the full 16 MiB × 4-corpus sweep in CI-friendly time.
        std::env::set_var(
            "PRIMACY_BENCH_SAMPLES",
            if smoke || write_baseline { "1" } else { "5" },
        );
    }

    let primacy = PrimacyCompressor::new(PrimacyConfig::default());
    let mut report = Report::new("throughput");
    let mut ratios: Vec<(String, f64)> = Vec::new();

    println!("End-to-end throughput, MB/s of uncompressed bytes ({elements} doubles per corpus)");
    println!("primacy = full pipeline (split/freq/idmap/linearize/deflate/isobar + CRC)\n");
    println!(
        "{:<11} {:>7} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "corpus", "ratio", "p.comp", "p.decomp", "zlib.c", "zlib.d", "lzr.c", "lzr.d"
    );
    rule(84);

    for corpus in corpora(elements) {
        let bytes = &corpus.bytes;
        let n = bytes.len() as u64;

        // End-to-end pipeline throughput (median over samples).
        let c_stats = harness::measure(|| primacy.compress_bytes(bytes).expect("compress"));
        let compressed = primacy.compress_bytes(bytes).expect("compress");
        let d_stats =
            harness::measure(|| primacy.decompress_bytes(&compressed).expect("decompress"));
        assert_eq!(
            primacy.decompress_bytes(&compressed).expect("decompress"),
            *bytes,
            "pipeline roundtrip failed on {}",
            corpus.name
        );
        let ratio = n as f64 / compressed.len() as f64;
        let name = corpus.name;
        report.push(
            format!("throughput/{name}/primacy/compress_mbps"),
            c_stats.mbps(n),
        );
        report.push(
            format!("throughput/{name}/primacy/decompress_mbps"),
            d_stats.mbps(n),
        );
        report.push(format!("throughput/{name}/primacy/ratio"), ratio);
        ratios.push((format!("{name}/primacy"), ratio));

        // Per-stage breakdown from several instrumented passes per direction
        // (same sample count as the end-to-end rows; medians in both).
        let stage_samples = std::env::var("PRIMACY_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(1)
            .max(1);
        let c_runs: Vec<_> = (0..stage_samples)
            .map(|_| {
                let (_, cs) = primacy.compress_bytes_with_stats(bytes).expect("compress");
                cs.timings
            })
            .collect();
        per_stage_mbps(&mut report, name, "compress", bytes.len(), &c_runs);
        let d_runs: Vec<_> = (0..stage_samples)
            .map(|_| {
                let (_, ds) = primacy
                    .decompress_bytes_with_stats(&compressed)
                    .expect("decompress");
                ds.timings
            })
            .collect();
        per_stage_mbps(&mut report, name, "decompress", bytes.len(), &d_runs);

        // Standalone backend codecs on the same raw bytes.
        let mut codec_cells: Vec<(f64, f64)> = Vec::new();
        for kind in CODECS {
            let codec = kind.build();
            let cc = harness::measure(|| codec.compress(bytes).expect("compress"));
            let comp = codec.compress(bytes).expect("compress");
            let dc = harness::measure(|| codec.decompress(&comp).expect("decompress"));
            report.push(
                format!("throughput/{name}/codec/{kind}/compress_mbps"),
                cc.mbps(n),
            );
            report.push(
                format!("throughput/{name}/codec/{kind}/decompress_mbps"),
                dc.mbps(n),
            );
            report.push(
                format!("throughput/{name}/codec/{kind}/ratio"),
                n as f64 / comp.len() as f64,
            );
            ratios.push((format!("{name}/codec/{kind}"), n as f64 / comp.len() as f64));
            if codec_cells.len() < 2 {
                codec_cells.push((cc.mbps(n), dc.mbps(n)));
            }
        }

        println!(
            "{:<11} {:>7.3} | {} {} | {} {} | {} {}",
            name,
            ratio,
            mbps(c_stats.mbps(n)),
            mbps(d_stats.mbps(n)),
            mbps(codec_cells[0].0),
            mbps(codec_cells[0].1),
            mbps(codec_cells[1].0),
            mbps(codec_cells[1].1),
        );
    }

    let value = report.to_value();
    if write_baseline {
        write_ratio_baseline(elements, &ratios);
        println!(
            "\nratio baseline: wrote {} entries to {RATIO_BASELINE}",
            ratios.len()
        );
    } else if smoke {
        validate(&value);
        check_ratio_baseline(elements, &ratios);
        println!("\nsmoke: schema, throughput floors and ratio baseline OK");
    }
    report.finish();
}

/// Serialize the measured ratios in the same `records` shape the bench
/// reports use, so the baseline stays readable by [`Value::get`] alone.
fn write_ratio_baseline(elements: usize, ratios: &[(String, f64)]) {
    let records: Vec<Value> = ratios
        .iter()
        .map(|(key, ratio)| {
            Value::object([
                ("key", Value::from(key.as_str())),
                ("value", Value::from(*ratio)),
            ])
        })
        .collect();
    let doc = Value::object([
        ("experiment", Value::from("ratio-baseline")),
        ("elements", Value::from(elements as f64)),
        ("records", Value::Array(records)),
    ]);
    std::fs::write(RATIO_BASELINE, doc.to_json())
        .unwrap_or_else(|e| panic!("writing {RATIO_BASELINE}: {e}"));
}

/// The `--smoke` ratio gate: every measured per-corpus ratio must sit within
/// [`RATIO_TOLERANCE`] of the checked-in baseline, and the corpus/codec set
/// itself must match — an added or removed corpus is a baseline refresh, not
/// a silent pass.
fn check_ratio_baseline(elements: usize, ratios: &[(String, f64)]) {
    let refresh = "refresh with: cargo run --release -p primacy-bench --bin throughput -- --write-ratio-baseline";
    let text = std::fs::read_to_string(RATIO_BASELINE)
        .unwrap_or_else(|e| panic!("reading {RATIO_BASELINE}: {e}; {refresh}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("parsing {RATIO_BASELINE}: {e}"));
    let base_elems = doc.get("elements").and_then(Value::as_f64).unwrap_or(0.0);
    assert_eq!(
        base_elems as usize, elements,
        "{RATIO_BASELINE} was written at {base_elems} elements, smoke runs {elements}; {refresh}"
    );
    let records = doc
        .get("records")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{RATIO_BASELINE} has no records array"));
    let baseline: Vec<(&str, f64)> = records
        .iter()
        .map(|rec| {
            let key = rec
                .get("key")
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{RATIO_BASELINE}: record without a key"));
            let value = rec
                .get("value")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{RATIO_BASELINE}: {key} has no numeric value"));
            (key, value)
        })
        .collect();

    println!(
        "\nratio gate vs {RATIO_BASELINE} (tolerance ±{:.1}%):",
        RATIO_TOLERANCE * 100.0
    );
    let mut failures = 0usize;
    for (key, measured) in ratios {
        let Some(&(_, expected)) = baseline.iter().find(|(k, _)| k == key) else {
            println!("  {key:<24} measured {measured:.4} | MISSING from baseline");
            failures += 1;
            continue;
        };
        let drift = (measured - expected) / expected;
        let ok = drift.abs() <= RATIO_TOLERANCE;
        println!(
            "  {key:<24} measured {measured:.4} | baseline {expected:.4} | drift {:+.3}% {}",
            drift * 100.0,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failures += 1;
        }
    }
    for (key, _) in &baseline {
        if !ratios.iter().any(|(k, _)| k == key) {
            println!("  {key:<24} in baseline but not measured");
            failures += 1;
        }
    }
    assert_eq!(
        failures, 0,
        "ratio gate failed on {failures} entries; {refresh}"
    );
}

/// Smoke-mode gate: the JSON document has the expected shape, every record
/// is a positive finite number, every throughput is below
/// [`MAX_PLAUSIBLE_MBPS`], and each direction reports only the stages it
/// runs. Absolute numbers are report-only.
fn validate(v: &Value) {
    assert_eq!(
        v.get("experiment").and_then(Value::as_str),
        Some("throughput"),
        "report is missing its experiment name"
    );
    let records = v
        .get("records")
        .and_then(Value::as_array)
        .expect("report has a records array");
    let mut mbps_keys = 0usize;
    let (mut compress_stages, mut decompress_stages) = (0usize, 0usize);
    for rec in records {
        let key = rec
            .get("key")
            .and_then(Value::as_str)
            .expect("record has a key");
        let value = rec
            .get("value")
            .and_then(Value::as_f64)
            .expect("record has a numeric value");
        assert!(
            value.is_finite() && value > 0.0,
            "{key} = {value} violates the >0 floor"
        );
        if key.ends_with("_mbps") {
            assert!(
                value <= MAX_PLAUSIBLE_MBPS,
                "{key} = {value} MB/s is above the {MAX_PLAUSIBLE_MBPS} MB/s ceiling"
            );
            mbps_keys += 1;
        }
        if key.contains("/stage/") {
            if key.ends_with("/compress_mbps") {
                compress_stages += 1;
            } else if key.ends_with("/decompress_mbps") {
                decompress_stages += 1;
            }
        }
    }
    // Per corpus: compress runs all six stages, decompress every stage but
    // `freq`.
    let corpora = 4;
    assert_eq!(
        (compress_stages, decompress_stages),
        (corpora * STAGES.len(), corpora * (STAGES.len() - 1)),
        "expected 6 compress and 5 decompress stage records per corpus"
    );
    // 4 corpora × (2 end-to-end + 11 stage + 6 codec) MB/s records.
    let expected = corpora * (2 + 2 * STAGES.len() - 1 + 2 * CODECS.len());
    assert_eq!(
        mbps_keys, expected,
        "expected {expected} *_mbps records, found {mbps_keys}"
    );
}
