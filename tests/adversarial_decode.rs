//! Seeded adversarial-decode corpus: the acceptance gate for the panic-free
//! decode policy that `primacy-lint` enforces statically.
//!
//! For every decode surface (each byte codec, gzip, raw DEFLATE, the PRIMACY
//! chunk stream, and the archive), a deterministic xoshiro256++ stream
//! ([`Rng`]) derives at least [`CORPUS`] mutated inputs from one valid
//! compressed stream — random bit flips, truncations, zero-filled windows,
//! and spliced garbage — and every decode must return `Ok` or `Err`.
//! A panic anywhere is caught by `catch_unwind` and reported with the seed
//! and mutation index needed to replay it under a debugger.

use primacy_suite::codecs::deflate::{deflate, inflate, Gzip, Level};
use primacy_suite::codecs::{Codec, CodecKind, CodecScratch};
use primacy_suite::core::{ArchiveReader, ArchiveWriter, PrimacyCompressor, PrimacyConfig};
use primacy_suite::datagen::{DatasetId, Rng};

/// Mutated inputs per format. The acceptance bar is 256 (compile-time
/// checked below); keep a margin so tuning never shrinks the corpus under it.
const CORPUS: usize = 320;
const _: () = assert!(CORPUS >= 256, "adversarial corpus floor is 256 inputs");

/// Fixed corpus seed — stable across runs so failures replay exactly.
const SEED: u64 = 0x5EED_AD5E_C0DE_2026;

/// Derive one mutated input from a valid stream. Mutation kinds mirror the
/// transport faults the paper's I/O stack can hand a reader: flipped bits,
/// short reads, zeroed pages, and foreign bytes spliced mid-stream.
fn mutate(rng: &mut Rng, stream: &[u8]) -> Vec<u8> {
    let mut bad = stream.to_vec();
    match rng.gen_range(0..4usize) {
        // Bit flips: 1..=8 random single-bit faults.
        0 => {
            for _ in 0..rng.gen_range(1..9usize) {
                if bad.is_empty() {
                    break;
                }
                let pos = rng.gen_range(0..bad.len());
                bad[pos] ^= 1 << rng.gen_range(0..8usize);
            }
            bad
        }
        // Truncation to a random prefix (possibly empty).
        1 => {
            let keep = rng.gen_range(0..bad.len().max(1));
            bad.truncate(keep);
            bad
        }
        // Zero-fill a random window (a torn or unwritten page).
        2 => {
            if !bad.is_empty() {
                let start = rng.gen_range(0..bad.len());
                let len = rng.gen_range(1..65usize).min(bad.len() - start);
                bad[start..start + len].fill(0);
            }
            bad
        }
        // Splice random garbage over a random window, possibly growing it.
        _ => {
            let at = rng.gen_range(0..bad.len().max(1)).min(bad.len());
            let mut garbage = vec![0u8; rng.gen_range(1..33usize)];
            rng.fill_bytes(&mut garbage);
            bad.splice(at..at, garbage);
            bad
        }
    }
}

/// Run `decode` over `CORPUS` mutations of `stream`; panic (with replay
/// coordinates) if any decode panics instead of returning a `Result`.
fn assault(label: &str, stream: &[u8], mut decode: impl FnMut(&[u8])) {
    let mut rng = Rng::seed_from_u64(SEED ^ fnv1a(label));
    for case in 0..CORPUS {
        let bad = mutate(&mut rng, stream);
        // The decoders take `&[u8]`; a closure that keeps mutable state (a
        // reused scratch) is not consulted again after a caught panic, as the
        // assertion below fails the test first.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&bad)));
        assert!(
            outcome.is_ok(),
            "{label}: decode panicked on mutation {case} (seed {SEED:#018x}, \
             input {} bytes)",
            bad.len(),
        );
    }
}

/// FNV-1a label hash so each format sees an independent mutation stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Representative payload: a real dataset slice, structured enough that the
/// valid streams exercise every encode path (matches, tables, residuals).
fn payload() -> Vec<u8> {
    DatasetId::MsgSp.generate_bytes(4096)
}

#[test]
fn every_codec_survives_the_corpus() {
    let data = payload();
    for kind in CodecKind::ALL {
        let codec = kind.build();
        let stream = codec.compress(&data).unwrap();
        assault(&kind.to_string(), &stream, |bytes| {
            let _ = codec.decompress(bytes);
        });
    }
}

/// The same mutations decoded through one `CodecScratch` kept for the whole
/// corpus: after each one, the clean stream must still decode to the
/// original through that scratch. A decoder that leaves reused state dirty
/// on an error path (FPC's predictor tables, the deflate family's
/// `InflateScratch`) fails here though `decompress` alone passes.
#[test]
fn every_codec_survives_the_corpus_through_one_scratch() {
    let data = payload();
    let mut scratch = CodecScratch::new();
    for kind in CodecKind::ALL {
        let codec = kind.build();
        let stream = codec.compress(&data).unwrap();
        let mut case = 0;
        let mut dirty = Vec::new();
        assault(&kind.to_string(), &stream, |bytes| {
            let _ = codec.decompress_with(bytes, &mut scratch);
            if codec.decompress_with(&stream, &mut scratch).as_deref() != Ok(&data[..]) {
                dirty.push(case);
            }
            case += 1;
        });
        assert!(
            dirty.is_empty(),
            "{kind}: the clean stream failed through the reused scratch after \
             mutations {dirty:?} (seed {SEED:#018x})"
        );
    }
}

#[test]
fn gzip_survives_the_corpus() {
    let data = payload();
    let g = Gzip::default();
    let stream = g.compress(&data).unwrap();
    assault("gzip", &stream, |bytes| {
        let _ = g.decompress(bytes);
    });
}

#[test]
fn raw_deflate_survives_the_corpus() {
    let data = payload();
    for level in [Level::Fast, Level::Default, Level::Best] {
        let stream = deflate(&data, level);
        assault(&format!("deflate/{level:?}"), &stream, |bytes| {
            let _ = inflate(bytes);
        });
    }
}

#[test]
fn primacy_stream_survives_the_corpus() {
    let values: Vec<f64> = {
        let mut rng = Rng::seed_from_u64(SEED);
        (0..2048).map(|_| rng.gen_range(-1e6..1e6)).collect()
    };
    let c = PrimacyCompressor::new(PrimacyConfig {
        chunk_bytes: 4096,
        ..Default::default()
    });
    let stream = c.compress_f64(&values).unwrap();
    assault("primacy-stream", &stream, |bytes| {
        let _ = c.decompress_f64(bytes);
    });
}

#[test]
fn primacy_archive_survives_the_corpus() {
    let data = payload();
    let mut w = ArchiveWriter::new(
        Vec::new(),
        PrimacyConfig {
            chunk_bytes: 4096,
            ..Default::default()
        },
    )
    .unwrap();
    w.append(&data).unwrap();
    let archive = w.finish().unwrap();
    assault("primacy-archive", &archive, |bytes| {
        if let Ok(r) = ArchiveReader::open(bytes) {
            let total = r.element_count() as usize;
            let _ = r.read_elements(0, total.min(1 << 20));
        }
    });
}

#[test]
fn mutations_are_deterministic() {
    // Same seed, same corpus — failures must replay bit-exactly.
    let stream: Vec<u8> = (0..=255u8).collect();
    let mut a = Rng::seed_from_u64(SEED);
    let mut b = Rng::seed_from_u64(SEED);
    for _ in 0..32 {
        assert_eq!(mutate(&mut a, &stream), mutate(&mut b, &stream));
    }
}

// ---------------------------------------------------------------------------
// Hand-crafted dynamic-header vectors
//
// The assault corpus above mutates *valid* encoder output, which rarely
// lands on the interesting header pathologies. These vectors construct the
// pathologies directly with the shared bit-stream builder.
// ---------------------------------------------------------------------------

mod common;

use common::{comb_litlen, put_dynamic_header, BitSink};

/// A valid dynamic stream whose litlen code reaches depth 12 (subtable
/// territory), used as the truncation donor below.
fn subtable_donor_stream() -> (Vec<u8>, Vec<u8>) {
    let (lit_lengths, fillers) = comb_litlen(b'A'.into(), 12);
    let mut s = BitSink::new();
    let (lit, _) = put_dynamic_header(&mut s, true, &lit_lengths, &[1]);
    let mut expected = Vec::new();
    for &f in &fillers {
        s.put_code(lit[usize::from(f)], u32::from(lit_lengths[usize::from(f)]));
        expected.push(f as u8);
    }
    s.put_code(lit[usize::from(b'A')], 12);
    expected.push(b'A');
    s.put_code(lit[256], 12);
    (s.finish(), expected)
}

#[test]
fn every_strict_prefix_of_a_dynamic_stream_errors() {
    let (stream, expected) = subtable_donor_stream();
    assert_eq!(inflate(&stream).expect("donor must decode"), expected);
    // Every strict byte-prefix cuts the stream mid-header or mid-body; all
    // must fail cleanly — no panic, no silent success.
    for keep in 0..stream.len() {
        assert!(
            inflate(&stream[..keep]).is_err(),
            "prefix of {keep}/{} bytes decoded",
            stream.len()
        );
    }
}

#[test]
fn oversubscribed_litlen_header_rejected() {
    // Kraft sum 1/2 + 1/4 + 1/4 + 1/4 = 5/4.
    let mut lit_lengths = vec![0u8; 257];
    lit_lengths[0] = 1;
    lit_lengths[1] = 2;
    lit_lengths[2] = 2;
    lit_lengths[256] = 2;
    let mut s = BitSink::new();
    put_dynamic_header(&mut s, true, &lit_lengths, &[1]);
    let err = inflate(&s.finish()).expect_err("over-subscribed litlen accepted");
    assert!(err.to_string().contains("over-subscribed"), "{err}");
}

#[test]
fn oversubscribed_dist_header_rejected() {
    // Five distance codes of length 2: Kraft sum 5/4.
    let mut lit_lengths = vec![0u8; 257];
    lit_lengths[b'x' as usize] = 1;
    lit_lengths[256] = 1;
    let mut s = BitSink::new();
    put_dynamic_header(&mut s, true, &lit_lengths, &[2, 2, 2, 2, 2]);
    let err = inflate(&s.finish()).expect_err("over-subscribed dist accepted");
    assert!(err.to_string().contains("over-subscribed"), "{err}");
}

#[test]
fn undersubscribed_litlen_header_rejected() {
    // Kraft sum 3/4: a quarter of the code space decodes to nothing.
    let mut lit_lengths = vec![0u8; 257];
    lit_lengths[0] = 2;
    lit_lengths[1] = 2;
    lit_lengths[256] = 2;
    let mut s = BitSink::new();
    put_dynamic_header(&mut s, true, &lit_lengths, &[1]);
    let err = inflate(&s.finish()).expect_err("under-subscribed litlen accepted");
    assert!(err.to_string().contains("under-subscribed"), "{err}");
}

#[test]
fn hlit_hdist_overflow_rejected() {
    // HLIT field 30 → 287 symbols (max is 286).
    let mut s = BitSink::new();
    s.put(1, 1);
    s.put(0b10, 2);
    s.put(30, 5); // HLIT
    s.put(0, 5); // HDIST
    s.put(0, 4); // HCLEN
    s.put(0, 40); // plausible continuation
    let err = inflate(&s.finish()).expect_err("HLIT=287 accepted");
    assert!(err.to_string().contains("HLIT exceeds 286"), "{err}");

    // HDIST field 30 → 31 distance codes (max is 30).
    for hdist in [30u64, 31] {
        let mut s = BitSink::new();
        s.put(1, 1);
        s.put(0b10, 2);
        s.put(0, 5);
        s.put(hdist, 5);
        s.put(0, 4);
        s.put(0, 40);
        let err = inflate(&s.finish()).expect_err("HDIST>29 accepted");
        assert!(err.to_string().contains("HDIST exceeds 30"), "{err}");
    }
}

/// Raw header whose code-length code contains only symbols 0 and 16, then
/// opens the length stream with 16 (copy-previous) — there is no previous.
#[test]
fn repeat_with_no_previous_length_rejected() {
    let mut s = BitSink::new();
    s.put(1, 1);
    s.put(0b10, 2);
    s.put(0, 5); // HLIT: 257
    s.put(0, 5); // HDIST: 1
    s.put(15, 4); // HCLEN: all 19
    let mut cl_lengths = [0u8; 19];
    cl_lengths[0] = 1;
    cl_lengths[16] = 1;
    for &ord in &common::CODELEN_ORDER {
        s.put(u64::from(cl_lengths[ord]), 3);
    }
    // Canonical: symbol 0 → code 0, symbol 16 → code 1. Open with 16.
    s.put_code(1, 1);
    s.put(0, 2); // repeat count bits
    s.put(0, 40);
    let err = inflate(&s.finish()).expect_err("leading repeat accepted");
    assert!(
        err.to_string().contains("repeat with no previous length"),
        "{err}"
    );
}

/// Zero-run (symbol 18) and copy-run (symbol 16) encodings that run past the
/// HLIT+HDIST table size must be rejected, not clamped.
#[test]
fn runlength_overflow_rejected() {
    // Symbol 18 twice: 138 + 138 = 276 entries > 257 + 1.
    let mut s = BitSink::new();
    s.put(1, 1);
    s.put(0b10, 2);
    s.put(0, 5);
    s.put(0, 5);
    s.put(15, 4);
    let mut cl_lengths = [0u8; 19];
    cl_lengths[0] = 1;
    cl_lengths[18] = 1;
    for &ord in &common::CODELEN_ORDER {
        s.put(u64::from(cl_lengths[ord]), 3);
    }
    for _ in 0..2 {
        s.put_code(1, 1); // symbol 18
        s.put(127, 7); // run of 138 zeros
    }
    s.put(0, 40);
    let err = inflate(&s.finish()).expect_err("zero-run overflow accepted");
    assert!(
        err.to_string().contains("zero run overflows table"),
        "{err}"
    );

    // One real length then symbol 16 repeats marching past the table end.
    let mut s = BitSink::new();
    s.put(1, 1);
    s.put(0b10, 2);
    s.put(0, 5);
    s.put(0, 5);
    s.put(15, 4);
    let mut cl_lengths = [0u8; 19];
    cl_lengths[1] = 1;
    cl_lengths[16] = 1;
    for &ord in &common::CODELEN_ORDER {
        s.put(u64::from(cl_lengths[ord]), 3);
    }
    s.put_code(0, 1); // symbol 1: one length-1 entry
    for _ in 0..50 {
        s.put_code(1, 1); // symbol 16
        s.put(3, 2); // repeat 6
    }
    s.put(0, 40);
    let err = inflate(&s.finish()).expect_err("copy-run overflow accepted");
    assert!(
        err.to_string().contains("length repeat overflows table"),
        "{err}"
    );
}
