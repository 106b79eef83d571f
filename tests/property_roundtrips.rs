//! Property-based tests: losslessness and safety invariants under
//! adversarial inputs, for every codec and the full pipeline.
//!
//! Formerly driven by `proptest`; now runs on an in-tree deterministic
//! case harness (zero-dependency policy, DESIGN.md). Each property draws
//! `CASES` inputs from seeded [`Rng`] streams — the same structured
//! generators the proptest strategies expressed — so every run covers the
//! identical case set and a failure message pinpoints the case seed to
//! replay under a debugger.

use primacy_suite::codecs::bwt::{bwt_forward, bwt_inverse, mtf_forward, mtf_inverse};
use primacy_suite::codecs::deflate::{deflate, inflate, Level};
use primacy_suite::codecs::CodecKind;
use primacy_suite::core::format::Header;
use primacy_suite::core::freq::FreqTable;
use primacy_suite::core::idmap::IdMap;
use primacy_suite::core::isobar::partition;
use primacy_suite::core::linearize::to_columns;
use primacy_suite::core::reassemble::{reassemble_into, Output, Sections};
use primacy_suite::core::split::split_hi_lo;
use primacy_suite::core::{PrimacyCompressor, PrimacyConfig};
use primacy_suite::datagen::Rng;

/// Cases per property — matches the proptest-era `with_cases(64)`.
const CASES: u64 = 64;

/// Run `prop` on `CASES` deterministically seeded generators. The property
/// name salts the seed so different properties see different streams, and a
/// failing case is reported by its exact seed.
fn check(name: &str, mut prop: impl FnMut(&mut Rng)) {
    for case in 0..CASES {
        let seed = fnv1a(name) ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prop(&mut rng);
        }));
        if let Err(payload) = outcome {
            eprintln!("property `{name}` failed at case {case} (rng seed {seed:#018x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// FNV-1a — a tiny stable string hash for salting per-property seeds.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

/// Byte buffers biased towards compressible structure (runs and repeats)
/// but including fully random tails — the `structured_bytes()` strategy.
fn structured_bytes(rng: &mut Rng) -> Vec<u8> {
    match rng.gen_range(0..4usize) {
        0 => {
            let len = rng.gen_range(0..2048usize);
            random_bytes(rng, len)
        }
        1 => {
            let len = rng.gen_range(0..4096usize);
            (0..len).map(|_| rng.gen_range(0..4usize) as u8).collect()
        }
        2 => {
            let b = rng.gen_range(0..256usize) as u8;
            let len = rng.gen_range(1..2000usize);
            vec![b; len]
        }
        _ => {
            let unit_len = rng.gen_range(0..64usize);
            random_bytes(rng, unit_len).repeat(17)
        }
    }
}

/// Doubles spanning raw-bit noise (incl. NaN/Inf payloads), a bounded
/// uniform band, and a small quantized value pool — the `f64_vec()`
/// strategy.
fn f64_vec(rng: &mut Rng) -> Vec<f64> {
    let len = rng.gen_range(0..512usize);
    match rng.gen_range(0..3usize) {
        0 => (0..len).map(|_| f64::from_bits(rng.next_u64())).collect(),
        1 => (0..len).map(|_| rng.gen_range(-1000.0..1000.0)).collect(),
        _ => (0..len)
            .map(|_| 1.0 + rng.gen_range(0..50usize) as f64 * 0.125)
            .collect(),
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn deflate_roundtrips() {
    check("deflate_roundtrips", |rng| {
        let data = structured_bytes(rng);
        for level in [Level::Fast, Level::Default, Level::Best] {
            let comp = deflate(&data, level);
            assert_eq!(inflate(&comp).unwrap(), data);
        }
    });
}

#[test]
fn every_codec_roundtrips() {
    check("every_codec_roundtrips", |rng| {
        let data = structured_bytes(rng);
        for kind in CodecKind::ALL {
            let codec = kind.build();
            let comp = codec.compress(&data).unwrap();
            assert_eq!(codec.decompress(&comp).unwrap(), data, "codec {kind}");
        }
    });
}

#[test]
fn inflate_never_panics_on_garbage() {
    check("inflate_never_panics_on_garbage", |rng| {
        let len = rng.gen_range(0..512usize);
        let data = random_bytes(rng, len);
        let _ = inflate(&data);
    });
}

#[test]
fn codec_decompress_never_panics_on_garbage() {
    check("codec_decompress_never_panics_on_garbage", |rng| {
        let len = rng.gen_range(0..256usize);
        let data = random_bytes(rng, len);
        for kind in CodecKind::ALL {
            let _ = kind.build().decompress(&data);
        }
    });
}

#[test]
fn bwt_mtf_roundtrip() {
    check("bwt_mtf_roundtrip", |rng| {
        let data = structured_bytes(rng);
        let (bwt, primary) = bwt_forward(&data);
        assert_eq!(bwt.len(), data.len());
        assert_eq!(bwt_inverse(&bwt, primary).unwrap(), data);
        let ranks = mtf_forward(&data);
        assert_eq!(mtf_inverse(&ranks), data);
    });
}

#[test]
fn bwt_is_a_byte_permutation() {
    check("bwt_is_a_byte_permutation", |rng| {
        let data = structured_bytes(rng);
        let (bwt, _) = bwt_forward(&data);
        let mut a = data;
        let mut b = bwt;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    });
}

#[test]
fn primacy_roundtrips_any_doubles() {
    check("primacy_roundtrips_any_doubles", |rng| {
        let values = f64_vec(rng);
        let c = PrimacyCompressor::new(PrimacyConfig::default());
        let comp = c.compress_f64(&values).unwrap();
        let back = c.decompress_f64(&comp).unwrap();
        assert_eq!(bits(&back), bits(&values));
    });
}

#[test]
fn primacy_decompress_never_panics_on_garbage() {
    check("primacy_decompress_never_panics_on_garbage", |rng| {
        let len = rng.gen_range(0..256usize);
        let data = random_bytes(rng, len);
        let c = PrimacyCompressor::new(PrimacyConfig::default());
        let _ = c.decompress_bytes(&data);
    });
}

#[test]
fn split_join_inverse() {
    check("split_join_inverse", |rng| {
        let values = f64_vec(rng);
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        // Split, then join again through the decoder's fused pass: the ID
        // stream in row order and every lo column raw.
        let (mut hi, lo) = split_hi_lo(&bytes, 8, 2).unwrap();
        let n = values.len();
        let map = IdMap::from_freq(&FreqTable::from_hi_matrix(&hi, 2), 2).unwrap();
        map.encode_hi(&mut hi).unwrap();
        let (compressible, raw) = partition(&lo, n, 6, 0);
        let cfg = PrimacyConfig {
            linearization: primacy_suite::core::Linearization::Row,
            ..Default::default()
        };
        let sections = Sections {
            ids: &hi,
            mask: 0,
            compressible: &compressible,
            raw: &raw,
        };
        let mut back = Vec::new();
        reassemble_into(
            &Header::new(&cfg, n as u64),
            &map,
            &sections,
            Output::Append(&mut back),
        )
        .unwrap();
        assert_eq!(back, bytes);
    });
}

#[test]
fn transpose_inverse() {
    check("transpose_inverse", |rng| {
        let len = rng.gen_range(0..512usize);
        let data = random_bytes(rng, len);
        let cols = rng.gen_range(1..8usize);
        let rows = data.len() / cols;
        let data = &data[..rows * cols];
        // Column-major rows×cols is row-major cols×rows: transposing back
        // restores the input.
        let t = to_columns(data, rows, cols);
        assert_eq!(to_columns(&t, cols, rows), data.to_vec());
    });
}

#[test]
fn idmap_is_bijective_on_present_sequences() {
    check("idmap_is_bijective_on_present_sequences", |rng| {
        let len = rng.gen_range(1..500usize);
        let keys: Vec<u16> = (0..len).map(|_| rng.next_u64() as u16).collect();
        let hi: Vec<u8> = keys.iter().flat_map(|k| k.to_be_bytes()).collect();
        let freq = FreqTable::from_hi_matrix(&hi, 2);
        let map = IdMap::from_freq(&freq, 2).unwrap();
        // Every present sequence maps to a unique ID below the map size.
        let mut seen = std::collections::HashSet::new();
        for &k in &keys {
            let id = map.id_of(k).expect("present sequence must be mapped");
            assert!((id as usize) < map.len());
            assert_eq!(map.seq_of(id), Some(k));
            seen.insert(id);
        }
        assert_eq!(seen.len(), map.len());
        // IDs are assigned by non-increasing frequency.
        for id in 1..map.len() as u16 {
            let prev = map.seq_of(id - 1).unwrap();
            let cur = map.seq_of(id).unwrap();
            assert!(freq.count(prev) >= freq.count(cur));
        }
        // Encode/decode of the matrix is the identity.
        let mut enc = hi.clone();
        map.encode_hi(&mut enc).unwrap();
        let dec: Vec<u8> = enc
            .chunks_exact(2)
            .flat_map(|id| {
                let seq = map.seq_of(u16::from_be_bytes([id[0], id[1]]));
                seq.expect("encoded IDs are mapped").to_be_bytes()
            })
            .collect();
        assert_eq!(dec, hi);
    });
}

#[test]
fn gzip_roundtrips() {
    check("gzip_roundtrips", |rng| {
        use primacy_suite::codecs::{deflate::Gzip, Codec};
        let data = structured_bytes(rng);
        let g = Gzip::default();
        let comp = g.compress(&data).unwrap();
        assert_eq!(g.decompress(&comp).unwrap(), data);
    });
}

#[test]
fn archive_appends_and_ranged_reads() {
    check("archive_appends_and_ranged_reads", |rng| {
        use primacy_suite::core::{ArchiveReader, ArchiveWriter};
        let cfg = PrimacyConfig {
            chunk_bytes: 512,
            ..Default::default()
        };
        let mut w = ArchiveWriter::new(Vec::new(), cfg).unwrap();
        let mut all: Vec<f64> = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            let piece: Vec<f64> = (0..rng.gen_range(0..200usize))
                .map(|_| rng.gen_range(-1e6..1e6))
                .collect();
            w.append_f64(&piece).unwrap();
            all.extend_from_slice(&piece);
        }
        let archive = w.finish().unwrap();
        let r = ArchiveReader::open(&archive).unwrap();
        assert_eq!(r.element_count(), all.len() as u64);
        // Full readback.
        let back = r.read_elements_f64(0, all.len()).unwrap();
        assert_eq!(bits(&back), bits(&all));
        // A pseudo-random window.
        if !all.is_empty() {
            let start = rng.gen_range(0..all.len());
            let count = rng.gen_range(0..256usize).min(all.len() - start);
            let got = r.read_elements_f64(start as u64, count).unwrap();
            assert_eq!(bits(&got), bits(&all[start..start + count]));
        }
    });
}

#[test]
fn archive_open_never_panics_on_garbage() {
    check("archive_open_never_panics_on_garbage", |rng| {
        use primacy_suite::core::ArchiveReader;
        let len = rng.gen_range(0..300usize);
        let data = random_bytes(rng, len);
        let _ = ArchiveReader::open(&data);
    });
}

#[test]
fn compressed_stream_smaller_or_bounded() {
    check("compressed_stream_smaller_or_bounded", |rng| {
        // Worst-case expansion of the container must stay modest even on
        // adversarial doubles.
        let len = rng.gen_range(64..512usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let c = PrimacyCompressor::new(PrimacyConfig::default());
        let comp = c.compress_f64(&values).unwrap();
        assert!(comp.len() < values.len() * 8 + values.len() * 2 + 4096);
    });
}

/// Mutate a valid compressed stream the way a faulty transport would:
/// truncate it, flip a bit, or zero-fill a window.
fn mutate_stream(rng: &mut Rng, stream: &[u8]) -> Vec<u8> {
    let mut bad = stream.to_vec();
    match rng.gen_range(0..3usize) {
        0 => {
            let keep = rng.gen_range(0..bad.len().max(1));
            bad.truncate(keep);
        }
        1 => {
            if !bad.is_empty() {
                let pos = rng.gen_range(0..bad.len());
                bad[pos] ^= 1 << rng.gen_range(0..8usize);
            }
        }
        _ => {
            if !bad.is_empty() {
                let start = rng.gen_range(0..bad.len());
                let len = rng.gen_range(1..33usize).min(bad.len() - start);
                bad[start..start + len].fill(0);
            }
        }
    }
    bad
}

#[test]
fn mutated_zlib_streams_error_or_roundtrip() {
    check("mutated_zlib_streams_error_or_roundtrip", |rng| {
        let data = structured_bytes(rng);
        let codec = CodecKind::Zlib.build();
        let stream = codec.compress(&data).unwrap();
        for _ in 0..8 {
            let bad = mutate_stream(rng, &stream);
            if let Ok(out) = codec.decompress(&bad) {
                // A mutation can legitimately rewrite the stream into the
                // canonical empty-payload encoding (e.g. zero-filling the
                // length varint and checksum); any other Ok must roundtrip.
                assert!(
                    out == data || out.is_empty(),
                    "mutated zlib stream silently corrupted"
                );
            }
        }
    });
}

#[test]
fn mutated_lzr_frames_error_or_roundtrip() {
    check("mutated_lzr_frames_error_or_roundtrip", |rng| {
        let data = structured_bytes(rng);
        let codec = CodecKind::Lzr.build();
        let stream = codec.compress(&data).unwrap();
        for _ in 0..8 {
            let bad = mutate_stream(rng, &stream);
            if let Ok(out) = codec.decompress(&bad) {
                // Same degenerate-rewrite caveat as the zlib property above.
                assert!(
                    out == data || out.is_empty(),
                    "mutated lzr frame silently corrupted"
                );
            }
        }
    });
}

#[test]
fn mutated_archives_error_or_roundtrip() {
    check("mutated_archives_error_or_roundtrip", |rng| {
        use primacy_suite::core::{ArchiveReader, ArchiveWriter};
        let values: Vec<f64> = (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(-1e6..1e6))
            .collect();
        let mut w = ArchiveWriter::new(
            Vec::new(),
            PrimacyConfig {
                chunk_bytes: 512,
                ..Default::default()
            },
        )
        .unwrap();
        w.append_f64(&values).unwrap();
        let archive = w.finish().unwrap();
        for _ in 0..8 {
            let bad = mutate_stream(rng, &archive);
            let Ok(r) = ArchiveReader::open(&bad) else {
                continue;
            };
            let total = (r.element_count() as usize).min(1 << 20);
            if let Ok(out) = r.read_elements_f64(0, total) {
                assert_eq!(
                    bits(&out),
                    bits(&values[..total.min(values.len())]),
                    "mutated archive silently corrupted"
                );
            }
        }
    });
}

#[test]
fn harness_seeds_are_stable() {
    // The harness itself must stay deterministic: same property name, same
    // case, same stream.
    let seed_a = fnv1a("some_property") ^ 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut a = Rng::seed_from_u64(seed_a);
    let mut b = Rng::seed_from_u64(seed_a);
    assert_eq!(
        (0..16).map(|_| a.next_u64()).collect::<Vec<_>>(),
        (0..16).map(|_| b.next_u64()).collect::<Vec<_>>()
    );
    assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
}
