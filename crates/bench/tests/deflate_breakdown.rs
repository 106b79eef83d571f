//! Developer probe: sub-stage breakdown of the deflate pipeline stage.
//!
//! The throughput benchmark reports the deflate stage as one number, but that
//! number folds together LZ77 match finding, entropy coding, inflate, and the
//! container checksum. When the stage regresses (or an optimization
//! under-delivers), this probe says which of the four moved, on raw datasets
//! and on the two streams PRIMACY hands its solver (the ID-mapped hi stream
//! and ISOBAR's compressible lo stream, chunk by chunk). Ignored by default —
//! it prints timings rather than asserting them; run it with
//!
//! ```text
//! cargo test --release -p primacy-bench --test deflate_breakdown -- --ignored --nocapture
//! ```
//!
//! or only the PRIMACY streams, with `primacy_stream_breakdown` as the test
//! filter. `PRIMACY_BENCH_ELEMS` sets the doubles per dataset (default 2²¹).

use std::time::Instant;

use primacy_bench::dataset_bytes;
use primacy_codecs::checksum::adler32;
use primacy_codecs::deflate::{encode, inflate, lz77, Level};
use primacy_core::pipeline::precondition;
use primacy_core::{EncodeScratch, PrimacyConfig};
use primacy_datagen::{DatasetId, Rng};

/// Timed passes per breakdown; each part reports its median.
const PASSES: usize = 5;

fn mbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-9)
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Seconds of each part over every buffer in `bufs`, as the pipeline runs
/// them: one reused scratch, one buffer at a time.
fn pass(bufs: &[Vec<u8>], scratch: &mut lz77::EncoderScratch) -> ([f64; 4], usize) {
    let mut t = [0.0; 4];
    let mut out_bytes = 0;
    for data in bufs {
        let ((), t_tok) = time(|| lz77::tokenize_into(data, Level::Default, scratch));
        let tokens = scratch.tokens().to_vec();
        let (stream, t_emit) = time(|| encode::emit_blocks(data, &tokens));
        let (out, t_inf) = time(|| inflate(&stream).expect("inflate"));
        assert_eq!(&out, data);
        let (_, t_adler) = time(|| adler32(data));
        for (acc, x) in t.iter_mut().zip([t_tok, t_emit, t_inf, t_adler]) {
            *acc += x;
        }
        out_bytes += stream.len();
    }
    (t, out_bytes)
}

/// Print the median time of each part over [`PASSES`] passes and return the
/// median compress (tokenize + emit) seconds.
fn breakdown(name: &str, bufs: &[Vec<u8>]) -> f64 {
    let mut scratch = lz77::EncoderScratch::new();
    // Warm the scratch allocations out of the measurement.
    for data in bufs {
        lz77::tokenize_into(data, Level::Default, &mut scratch);
    }
    let passes: Vec<([f64; 4], usize)> = (0..PASSES).map(|_| pass(bufs, &mut scratch)).collect();
    let part = |k: usize| median(passes.iter().map(|p| p.0[k]).collect());
    let compress = median(passes.iter().map(|p| p.0[0] + p.0[1]).collect());
    let n: usize = bufs.iter().map(Vec::len).sum();
    let ratio = n as f64 / passes[0].1.max(1) as f64;
    println!(
        "{name:<14} {:7.2} MB ratio {ratio:6.3} | tokenize {:7.1} ms {:7.1} MB/s | emit {:6.1} ms | \
         compress {:7.1} ms {:7.1} MB/s | inflate {:7.1} MB/s | adler {:7.1} MB/s",
        n as f64 / 1e6,
        part(0) * 1e3,
        mbps(n, part(0)),
        part(1) * 1e3,
        compress * 1e3,
        mbps(n, compress),
        mbps(n, part(2)),
        mbps(n, part(3)),
    );
    compress
}

#[test]
#[ignore = "developer probe: prints token statistics, asserts only sanity"]
fn deflate_token_stats() {
    for (name, data) in [
        ("obs_error", DatasetId::ObsError.generate_bytes(1 << 20)),
        ("gts_phi_l", DatasetId::GtsPhiL.generate_bytes(1 << 20)),
    ] {
        let tokens = lz77::tokenize(&data, Level::Default);
        let mut lits = 0u64;
        let mut matches = 0u64;
        let mut match_bytes = 0u64;
        let mut len_hist = [0u64; 5]; // 3-4, 5-8, 9-16, 17-64, 65+
        let mut dist_hist = [0u64; 5]; // 1, 2-7, 8-64, 65-4096, 4097+
        for &t in &tokens {
            match t {
                lz77::Token::Literal(_) => lits += 1,
                lz77::Token::Match { len, dist } => {
                    matches += 1;
                    match_bytes += u64::from(len);
                    let lb = match len {
                        3..=4 => 0,
                        5..=8 => 1,
                        9..=16 => 2,
                        17..=64 => 3,
                        _ => 4,
                    };
                    let db = match dist {
                        1 => 0,
                        2..=7 => 1,
                        8..=64 => 2,
                        65..=4096 => 3,
                        _ => 4,
                    };
                    len_hist[lb] += 1;
                    dist_hist[db] += 1;
                }
            }
        }
        assert_eq!(lits + match_bytes, data.len() as u64);
        println!(
            "{name}: {} tokens = {lits} literals + {matches} matches covering {match_bytes} bytes",
            tokens.len()
        );
        println!("  len  3-4/5-8/9-16/17-64/65+: {len_hist:?}");
        println!("  dist 1/2-7/8-64/65-4k/4k+:   {dist_hist:?}");
    }
}

#[test]
#[ignore = "developer probe: prints a timing breakdown, asserts only correctness"]
fn deflate_substage_breakdown() {
    let elements = 1 << 20;
    let mut rng = Rng::seed_from_u64(0x7470_5f72_616e_646f);
    let mut random = vec![0u8; elements * 8];
    rng.fill_bytes(&mut random);
    breakdown("obs_error", &[DatasetId::ObsError.generate_bytes(elements)]);
    breakdown("random", &[random]);
    breakdown("gts_phi_l", &[DatasetId::GtsPhiL.generate_bytes(elements)]);
}

/// The ckpt-structured workload's datasets, each cut into default-size
/// chunks and each chunk into the hi and lo streams the pipeline hands its
/// solver at `Level::Default`; the last line sums the compress medians.
#[test]
#[ignore = "developer probe: prints a timing breakdown, asserts only correctness"]
fn primacy_stream_breakdown() {
    let cfg = PrimacyConfig::default();
    let mut total = 0.0;
    for id in [
        DatasetId::GtsPhiL,
        DatasetId::NumPlasma,
        DatasetId::ObsError,
    ] {
        let data = dataset_bytes(id);
        let (mut his, mut los) = (Vec::new(), Vec::new());
        let mut scratch = EncodeScratch::new();
        for chunk in data.chunks(cfg.chunk_elements() * cfg.element_size) {
            let pre = precondition(&cfg, chunk, false, &mut scratch).expect("structured chunk");
            his.push(pre.ids);
            if !pre.compressible.is_empty() {
                los.push(pre.compressible);
            }
        }
        total += breakdown(&format!("{}/hi", id.name()), &his);
        if !los.is_empty() {
            total += breakdown(&format!("{}/lo", id.name()), &los);
        }
    }
    println!("all streams: compress {:.1} ms", total * 1e3);
}
