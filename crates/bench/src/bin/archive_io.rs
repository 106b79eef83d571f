//! Archive write/read wall-clock with and without compression/I/O overlap —
//! the experiment that justifies the double-buffered `ArchiveWriter`.
//!
//! Two sinks are measured:
//!
//! * **tmpfs** — a real `BufWriter<File>` on `/dev/shm` (system temp dir as
//!   fallback). Report-only: on a machine where the page cache is
//!   memory-speed, the write stage is itself CPU work, so overlap gains
//!   there come only from spare cores — which a single-core container
//!   (like this repo's CI) does not have.
//! * **staged** — the same file behind a bandwidth pacer that models the
//!   per-node share of a staging I/O path (the paper's compute-node →
//!   I/O-node link, §IV): writes block without consuming CPU. This is the
//!   regime the overlapped writer exists for — while the writer thread
//!   waits out the link, the compress workers keep the core busy — and it
//!   is where the speedup gate and the hpcsim model validation apply.
//!
//! Each staged row carries the *model-predicted* wall time from
//! [`primacy_hpcsim::predict_archive_write`], calibrated from measurement —
//! the model-vs-measured validation the hpcsim crate promises. The rate
//! prior comes from `results/BENCH_throughput.json` (re-measured inline when
//! missing); once the tmpfs bulk write has run, the compress stage is
//! re-calibrated from it, because a memory-speed sink makes that run a
//! direct measurement of the *archive-path* compress rate — the codec-only
//! throughput rate overestimates it (no section framing, CRCs, or per-chunk
//! index rebuilds, and a different chunk size). The compression ratio is
//! taken from the archive actually written. Rows oversubscribing the
//! machine (`threads > cores`) print no prediction: the model deliberately
//! has no term for same-core timeslicing contention.
//!
//! Every overlapped row reports `archive.hidden_pct`, the share of the
//! shorter of compress and sink-write time hidden behind the other; the
//! bench asserts it lies in 0–100 on every run (the counter is unsigned, so
//! only the upper bound needs a check). The read-back goes through
//! `read_all_parallel`.
//!
//! `-- --smoke` (used by ci.sh) shrinks the corpus and gates: archives must
//! be byte-identical across modes, the staged overlapped writer must beat
//! the staged bulk writer (≥ 1.05×, noise-tolerant), and its hidden share
//! must be nonzero. The ≥1.3× speedup claim is made by the full-size
//! persisted run, not the smoke gate.

use primacy_bench::{mbps, rule, Report};
use primacy_core::{resolve_threads, ArchiveReader, ArchiveWriter, PrimacyConfig};
use primacy_datagen::{DatasetId, Rng};
use primacy_hpcsim::{measure_primacy, predict_archive_write, Calibration};
use primacy_trace::{self as trace, Collector};
use std::fs::File;
use std::io::{BufWriter, Read as _, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The trace sink: the overlap counter (`archive.hidden_pct`) is recorded by
/// `finish()` and read back from here between runs.
static TRACE: Collector = Collector::new();

/// Modeled staging-link bandwidth, bytes/s. The paper's XK6 testbed shares
/// each I/O node's link across 8 compute nodes; 150 MB/s is a plausible
/// per-node share and — deliberately — the same order as the pipeline's
/// compression rate, the regime where overlap pays the most.
const STAGED_SINK_BPS: f64 = 150e6;

struct Corpus {
    name: &'static str,
    bytes: Vec<u8>,
}

/// The two poles of the acceptance criterion: a structured dataset the
/// preconditioner compresses well, and a fully random corpus where the codec
/// gets out of the way and the sink dominates.
fn corpora(elements: usize) -> Vec<Corpus> {
    let mut rng = Rng::seed_from_u64(0x6172_6368_5f69_6f21); // "arch_io!"
    let mut random = vec![0u8; elements * 8];
    rng.fill_bytes(&mut random);
    vec![
        Corpus {
            name: "gts_phi_l",
            bytes: DatasetId::GtsPhiL.generate_bytes(elements),
        },
        Corpus {
            name: "random",
            bytes: random,
        },
    ]
}

/// Prefer tmpfs so the raw sink measures memory-speed I/O, not disk seeks.
fn scratch_dir() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    }
}

/// A sink that enforces a byte rate the way a staging link does: the data
/// still lands in the file, but the caller blocks (without CPU) until the
/// link would have drained it.
struct PacedSink<W: Write> {
    inner: W,
    bps: f64,
}

impl<W: Write> PacedSink<W> {
    fn new(inner: W, bps: f64) -> Self {
        Self { inner, bps }
    }
}

impl<W: Write> Write for PacedSink<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Per-transfer pacing: sending `len` bytes costs `len/bps` whether
        // or not the link idled beforehand — a link does not bank idle time.
        // (Cumulative pacing would let the bulk writer hide the whole link
        // cost inside its compression gaps, which no real link allows.)
        let t0 = Instant::now();
        self.inner.write_all(buf)?;
        let target = buf.len() as f64 / self.bps;
        let elapsed = t0.elapsed().as_secs_f64();
        if target > elapsed {
            std::thread::sleep(Duration::from_secs_f64(target - elapsed));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Write `bytes` as an archive through `make_sink`'s sink; returns seconds.
fn timed_write<W: Write + Send + 'static>(
    make_sink: impl FnOnce() -> W,
    cfg: &PrimacyConfig,
    bytes: &[u8],
    threads: Option<usize>,
) -> f64 {
    let t0 = Instant::now();
    let sink = make_sink();
    let mut w = match threads {
        Some(t) => ArchiveWriter::with_overlap(sink, cfg.clone(), t),
        None => ArchiveWriter::new(sink, cfg.clone()),
    }
    .expect("open archive writer");
    w.append(bytes).expect("append");
    let mut sink = w.finish().expect("finish archive");
    sink.flush().expect("flush archive");
    drop(sink);
    trace::flush_thread();
    t0.elapsed().as_secs_f64()
}

/// Read the scratch archive back through the parallel reader; returns
/// (plaintext, seconds).
fn timed_read(path: &PathBuf, threads: usize) -> (Vec<u8>, f64) {
    let mut data = Vec::new();
    File::open(path)
        .expect("open scratch archive")
        .read_to_end(&mut data)
        .expect("read scratch archive");
    let t0 = Instant::now();
    let r = ArchiveReader::open(&data).expect("open archive");
    let plain = r.read_all_parallel(threads).expect("parallel read");
    trace::flush_thread();
    (plain, t0.elapsed().as_secs_f64())
}

/// Pull one counter out of the collector and reset it for the next run.
fn take_counter(name: &str) -> u64 {
    let v = TRACE.snapshot().counter(name);
    TRACE.reset();
    v
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    trace::install(&TRACE).expect("install trace collector");
    let elements = if smoke {
        1 << 16 // several chunks at the smoke chunk size, still sub-second
    } else {
        1 << 21 // 16 MiB per corpus, tens of chunks
    };
    let cfg = PrimacyConfig {
        // Small chunks give the pipeline enough sections to overlap even in
        // smoke mode; the default 3 MB chunk would leave one-chunk corpora.
        chunk_bytes: if smoke { 64 * 1024 } else { 1 << 20 },
        ..PrimacyConfig::default()
    };
    let cores = resolve_threads(0);
    let reps = if smoke { 2 } else { 3 };
    let max_threads = cores.clamp(2, 8);
    let thread_points: Vec<usize> = {
        let mut v = vec![1, 2, max_threads];
        v.sort_unstable();
        v.dedup();
        v
    };

    // Calibration: persisted stage rates when available, re-measured inline
    // otherwise (first run on a fresh machine).
    let calibration = Calibration::from_path(&PathBuf::from("results/BENCH_throughput.json")).ok();
    if calibration.is_none() {
        println!("note: results/BENCH_throughput.json missing; calibrating by re-measuring\n");
    }

    let dir = scratch_dir();
    let mut report = Report::new("archive_io");
    println!(
        "Archive write wall-clock, bulk-synchronous vs overlapped \
         ({elements} doubles per corpus, {cores} core(s))"
    );
    println!(
        "tmpfs = {}; staged = same file behind a {:.0} MB/s pacer (per-node staging share)\n",
        dir.display(),
        STAGED_SINK_BPS / 1e6
    );
    println!(
        "{:<11} {:>7} {:>11} | {:>9} {:>9} {:>9} | {:>8} {:>9} {:>9}",
        "corpus", "sink", "mode", "MB/s", "speedup", "hidden%", "model s", "meas s", "err%"
    );
    rule(100);

    for corpus in corpora(elements) {
        let name = corpus.name;
        let bytes = &corpus.bytes;
        let n = bytes.len() as u64;
        let path = dir.join(format!("primacy_archive_io_{name}.prma"));

        // Rate prior for the model; refined from the tmpfs bulk run below.
        let mut compress_bps = match calibration.as_ref().and_then(|c| c.compress_bps(name)) {
            Some(bps) => bps,
            None => {
                measure_primacy(&cfg, bytes)
                    .expect("inline calibration")
                    .compress_bps
            }
        };

        // Warm the scratch file and page cache before any timed run.
        let _ = timed_write(
            || BufWriter::new(File::create(&path).expect("create scratch")),
            &cfg,
            bytes,
            None,
        );
        TRACE.reset();
        let golden = std::fs::read(&path).expect("read warmup archive");
        // Model the ratio the archive actually achieved (container bytes per
        // input byte), not the codec-only ratio.
        let ratio = n as f64 / golden.len().max(1) as f64;

        for staged in [false, true] {
            let sink_label = if staged { "staged" } else { "tmpfs" };
            let make = |staged: bool| {
                let file = BufWriter::new(File::create(&path).expect("create scratch"));
                move || {
                    PacedSink::new(
                        file,
                        if staged {
                            STAGED_SINK_BPS
                        } else {
                            f64::INFINITY
                        },
                    )
                }
            };

            // Best-of-N: a 1-core box shares itself with the OS, so single
            // shots swing 30%+; the minimum is the run the machine didn't
            // preempt.
            let bulk_secs = (0..reps)
                .map(|_| {
                    let s = timed_write(make(staged), &cfg, bytes, None);
                    TRACE.reset();
                    s
                })
                .fold(f64::MAX, f64::min);
            let bulk_mbps = n as f64 / 1e6 / bulk_secs.max(1e-9);
            if !staged {
                // A memory-speed sink makes the bulk run a direct measurement
                // of the archive-path compress rate; use it for the staged
                // predictions below (tmpfs runs first).
                compress_bps = n as f64 / bulk_secs.max(1e-9);
            }
            report.push(
                format!("archive_io/{name}/{sink_label}/bulk_mbps"),
                bulk_mbps,
            );
            report.push(
                format!("archive_io/{name}/{sink_label}/bulk_secs"),
                bulk_secs,
            );
            println!(
                "{:<11} {:>7} {:>11} | {} {:>9} {:>9} | {:>8} {:>9.3} {:>9}",
                name,
                sink_label,
                "bulk",
                mbps(bulk_mbps),
                "1.00x",
                "-",
                "-",
                bulk_secs,
                "-"
            );
            assert_eq!(
                std::fs::read(&path).expect("read bulk archive"),
                golden,
                "{name}/{sink_label}: bulk archive drifted from warmup"
            );

            for &t in &thread_points {
                let (secs, hidden_pct) = (0..reps)
                    .map(|_| {
                        let s = timed_write(make(staged), &cfg, bytes, Some(t));
                        let pct = take_counter("archive.hidden_pct");
                        assert!(
                            pct <= 100,
                            "{name}/{sink_label}: overlapped({t}) hidden share {pct}% exceeds 100%"
                        );
                        (s, pct)
                    })
                    .fold(
                        (f64::MAX, 0),
                        |best, run| if run.0 < best.0 { run } else { best },
                    );
                assert_eq!(
                    std::fs::read(&path).expect("read overlapped archive"),
                    golden,
                    "{name}/{sink_label}: overlapped({t}) archive is not byte-identical to bulk"
                );
                let rate = n as f64 / 1e6 / secs.max(1e-9);
                let speedup = bulk_secs / secs.max(1e-9);
                let key = format!("archive_io/{name}/{sink_label}");
                report.push(format!("{key}/overlap{t}_mbps"), rate);
                report.push(format!("{key}/overlap{t}_secs"), secs);
                report.push(format!("{key}/overlap{t}_speedup"), speedup);
                report.push(format!("{key}/overlap{t}_hidden_pct"), hidden_pct as f64);
                // Oversubscribed rows (t > cores) are outside the model's
                // domain — it has no term for same-core timeslicing — so
                // only in-parallelism rows get (and are judged on) a
                // prediction.
                let (model_col, err_col) = if t <= cores {
                    let p = predict_archive_write(
                        n as f64,
                        ratio,
                        compress_bps,
                        if staged { STAGED_SINK_BPS } else { f64::MAX },
                        t,
                        cfg.chunk_bytes as f64,
                    );
                    let err_pct = 100.0 * (p.overlapped_secs - secs) / secs.max(1e-9);
                    report.push(format!("{key}/model/overlap{t}_secs"), p.overlapped_secs);
                    report.push(format!("{key}/model/overlap{t}_err_pct"), err_pct);
                    (
                        format!("{:.3}", p.overlapped_secs),
                        format!("{err_pct:+.1}"),
                    )
                } else {
                    ("-".into(), "-".into())
                };
                println!(
                    "{:<11} {:>7} {:>11} | {} {:>8.2}x {:>8}% | {:>8} {:>9.3} {:>9}",
                    name,
                    sink_label,
                    format!("overlap({t})"),
                    mbps(rate),
                    speedup,
                    hidden_pct,
                    model_col,
                    secs,
                    err_col
                );

                if smoke && staged {
                    // The staged sink is the regime overlap exists for: the
                    // writer thread's link wait must hide behind compression
                    // even on one core. tmpfs rows stay report-only — with
                    // no spare core, a memcpy-speed sink leaves nothing to
                    // hide.
                    assert!(
                        speedup >= 1.05,
                        "{name}: staged overlapped({t}) write only {speedup:.2}x of bulk"
                    );
                    assert!(
                        hidden_pct > 0,
                        "{name}: staged overlapped({t}) write hid no sink time"
                    );
                }
            }
        }

        // Read side: parallel decode of the archive just written.
        let (plain, read_secs) = timed_read(&path, max_threads);
        assert_eq!(plain, *bytes, "{name}: archive roundtrip failed");
        report.push(
            format!("archive_io/{name}/read/parallel_mbps"),
            n as f64 / 1e6 / read_secs.max(1e-9),
        );
        let _ = std::fs::remove_file(&path);
    }

    if smoke {
        println!("\nsmoke: byte-identity, hidden share and staged-sink speedup gate OK");
    }
    report.finish();
}
