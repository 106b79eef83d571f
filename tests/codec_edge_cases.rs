//! Boundary-condition torture tests for the codec substrate: exact window
//! sizes, maximum match lengths, block boundaries, degenerate alphabets —
//! the places where off-by-one bugs in compressors live.

use primacy_suite::codecs::bwt::BwtCodec;
use primacy_suite::codecs::deflate::{deflate, inflate, Gzip, Level, Zlib};
use primacy_suite::codecs::fpc::Fpc;
use primacy_suite::codecs::lzr::Lzr;
use primacy_suite::codecs::{Codec, CodecKind};

fn xorshift_bytes(n: usize, mut seed: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 32) as u8
        })
        .collect()
}

fn assert_deflate_roundtrip(data: &[u8]) {
    for level in [Level::Fast, Level::Default, Level::Best] {
        let comp = deflate(data, level);
        assert_eq!(
            inflate(&comp).expect("inflate"),
            data,
            "len {} at {level:?}",
            data.len()
        );
    }
}

#[test]
fn deflate_window_boundary_matches() {
    // A marker exactly WINDOW_SIZE (32768) bytes apart: the farthest legal
    // distance. And one at 32769: one past it.
    for gap in [32_766usize, 32_767, 32_768, 32_769, 32_770] {
        let marker = b"0123456789ABCDEF";
        let mut data = xorshift_bytes(gap + 2 * marker.len(), gap as u64);
        data[..marker.len()].copy_from_slice(marker);
        let at = gap;
        data[at..at + marker.len()].copy_from_slice(marker);
        assert_deflate_roundtrip(&data);
    }
}

#[test]
fn deflate_max_match_length_runs() {
    // Runs around the 258-byte maximum match length.
    for len in [256usize, 257, 258, 259, 516, 517] {
        let mut data = vec![b'r'; len];
        data.push(b'X');
        assert_deflate_roundtrip(&data);
    }
}

#[test]
fn deflate_stored_block_length_boundaries() {
    // Incompressible inputs around the 65535-byte stored-block limit.
    for n in [65_534usize, 65_535, 65_536, 65_537, 131_070] {
        let data = xorshift_bytes(n, n as u64);
        assert_deflate_roundtrip(&data);
    }
}

#[test]
fn deflate_single_distinct_symbols() {
    // 1-symbol and 2-symbol alphabets stress degenerate Huffman trees.
    assert_deflate_roundtrip(&[0u8]);
    assert_deflate_roundtrip(&[255u8; 3]);
    let two: Vec<u8> = (0..10_000)
        .map(|i| if i % 3 == 0 { 7 } else { 9 })
        .collect();
    assert_deflate_roundtrip(&two);
}

#[test]
fn deflate_alternating_match_literal_texture() {
    // Forces frequent switches between literals and short matches.
    let mut data = Vec::new();
    for i in 0..20_000u32 {
        data.extend_from_slice(b"abc");
        data.push((i % 251) as u8);
    }
    assert_deflate_roundtrip(&data);
}

#[test]
fn zlib_and_gzip_containers_on_boundary_sizes() {
    let z = Zlib::default();
    let g = Gzip::default();
    for n in [0usize, 1, 7, 8, 9, 65_535, 65_536] {
        let data = xorshift_bytes(n, 42 + n as u64);
        assert_eq!(z.decompress(&z.compress(&data).unwrap()).unwrap(), data);
        assert_eq!(g.decompress(&g.compress(&data).unwrap()).unwrap(), data);
    }
}

#[test]
fn lzr_offset_boundaries() {
    // Matches at the 65535-byte maximum offset and just past it.
    for gap in [65_533usize, 65_534, 65_535, 65_536, 65_537] {
        let marker = b"MARKER_MARKER_MARKER";
        let mut data = xorshift_bytes(gap + 2 * marker.len(), gap as u64 * 3);
        data[..marker.len()].copy_from_slice(marker);
        data[gap..gap + marker.len()].copy_from_slice(marker);
        let comp = Lzr.compress(&data).unwrap();
        assert_eq!(Lzr.decompress(&comp).unwrap(), data, "gap {gap}");
    }
}

#[test]
fn lzr_nibble_extension_boundaries() {
    // Literal runs and match lengths around the 15-value nibble limits and
    // the 255-extension steps.
    for lits in [14usize, 15, 16, 269, 270, 271, 525] {
        let mut data = xorshift_bytes(lits, lits as u64);
        // Follow with a long match source+target.
        let unit = b"QWERTYUIOPASDFGH";
        data.extend_from_slice(unit);
        data.extend_from_slice(unit);
        data.extend_from_slice(unit);
        let comp = Lzr.compress(&data).unwrap();
        assert_eq!(Lzr.decompress(&comp).unwrap(), data, "lits {lits}");
    }
    for mlen in [4usize, 17, 18, 19, 272, 273, 274, 1000] {
        let mut data = b"seed_block_0123".to_vec();
        let start = data.len();
        for k in 0..mlen {
            let b = data[start - 15 + (k % 15)];
            data.push(b);
        }
        let comp = Lzr.compress(&data).unwrap();
        assert_eq!(Lzr.decompress(&comp).unwrap(), data, "mlen {mlen}");
    }
}

#[test]
fn bwt_block_size_boundaries() {
    let data: Vec<u8> = (0..10_000u32).map(|i| ((i / 5) % 253) as u8).collect();
    for block in [1usize, 2, 3, 999, 1000, 1001, 10_000, 20_000] {
        let codec = BwtCodec::with_block_size(block);
        let comp = codec.compress(&data).unwrap();
        assert_eq!(codec.decompress(&comp).unwrap(), data, "block {block}");
    }
}

#[test]
fn bwt_pathological_inputs() {
    let codec = BwtCodec::default();
    for data in [
        vec![0u8; 100_000],                         // single symbol
        (0..=255u8).cycle().take(65_536).collect(), // maximal alphabet cycle
        b"ab".repeat(50_000),                       // period 2
        {
            let mut v = vec![255u8; 50_000];
            v.extend(vec![0u8; 50_000]);
            v
        },
    ] {
        let comp = codec.compress(&data).unwrap();
        assert_eq!(codec.decompress(&comp).unwrap(), data);
    }
}

#[test]
fn fpc_residual_class_boundaries() {
    // Values engineered so XOR residuals have exactly k leading zero bytes
    // for every k — including the un-encodable k=4 fold.
    let fpc = Fpc::default();
    let mut values = vec![0.0f64];
    for k in 0..=8u32 {
        let bits: u64 = if k == 8 {
            0
        } else {
            0x0101_0101_0101_0101 >> (8 * k)
        };
        values.push(f64::from_bits(bits));
        values.push(0.0); // reset-ish
    }
    let comp = fpc.compress_f64(&values).unwrap();
    let back = fpc.decompress_f64(&comp).unwrap();
    assert_eq!(
        back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn every_codec_handles_exact_chunk_multiples() {
    // Sizes aligned to internal block/chunk sizes catch fencepost errors.
    for kind in CodecKind::ALL {
        let codec = kind.build();
        for n in [8usize, 16, 4096, 8192] {
            let data = xorshift_bytes(n, kind as u64 + n as u64);
            let comp = codec.compress(&data).unwrap();
            assert_eq!(codec.decompress(&comp).unwrap(), data, "{kind} at {n}");
        }
    }
}

#[test]
fn compressing_already_compressed_data_is_safe() {
    // Double compression must roundtrip and stay near-incompressible the
    // second time.
    let data = primacy_suite::datagen::DatasetId::ObsInfo.generate_bytes(1 << 14);
    let z = CodecKind::Zlib.build();
    let once = z.compress(&data).unwrap();
    let twice = z.compress(&once).unwrap();
    assert!(twice.len() as f64 > once.len() as f64 * 0.95);
    let back = z.decompress(&z.decompress(&twice).unwrap()).unwrap();
    assert_eq!(back, data);
}
