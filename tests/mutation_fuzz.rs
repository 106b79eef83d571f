//! Mutation fuzzing: take valid compressed streams and flip/truncate/extend
//! them systematically; every decoder must return an error or the original
//! data — never panic, never hand back silently corrupted bytes.
//!
//! This complements the random-garbage property tests: mutations of *valid*
//! streams exercise the deep decoder states garbage never reaches.

use primacy_suite::codecs::deflate::Gzip;
use primacy_suite::codecs::{Codec, CodecKind};
use primacy_suite::core::{ArchiveReader, ArchiveWriter, PrimacyCompressor, PrimacyConfig};
use primacy_suite::datagen::DatasetId;

fn payload() -> Vec<u8> {
    DatasetId::MsgSp.generate_bytes(2048)
}

/// Flip one byte at a stride of positions; decoding must be Err or the
/// exact original.
fn sweep_flips(
    decode: impl Fn(&[u8]) -> Option<Vec<u8>>,
    stream: &[u8],
    original: &[u8],
    label: &str,
) {
    for pos in (0..stream.len()).step_by(7) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = stream.to_vec();
            bad[pos] ^= mask;
            if let Some(out) = decode(&bad) {
                assert_eq!(
                    out, original,
                    "{label}: flip {mask:#04x} at {pos} silently corrupted output"
                );
            }
        }
    }
}

/// Every truncation must fail (a prefix of a valid stream is never valid
/// for these framed formats, except the degenerate empty-payload cases the
/// decoder can legitimately reconstruct).
fn sweep_truncations(
    decode: impl Fn(&[u8]) -> Option<Vec<u8>>,
    stream: &[u8],
    original: &[u8],
    label: &str,
) {
    for keep in (0..stream.len()).step_by(11) {
        if let Some(out) = decode(&stream[..keep]) {
            assert_eq!(
                out, original,
                "{label}: truncation to {keep} returned wrong data"
            );
        }
    }
}

/// Appending trailing garbage: accepted only if the decoder still returns
/// the original (self-terminating stream), otherwise must error.
fn sweep_extensions(
    decode: impl Fn(&[u8]) -> Option<Vec<u8>>,
    stream: &[u8],
    original: &[u8],
    label: &str,
) {
    for extra in [1usize, 8, 1000] {
        let mut extended = stream.to_vec();
        extended.extend(std::iter::repeat_n(0xA5u8, extra));
        if let Some(out) = decode(&extended) {
            assert_eq!(out, original, "{label}: +{extra} bytes changed the output");
        }
    }
}

#[test]
fn codec_streams_survive_mutation_sweeps() {
    let data = payload();
    for kind in CodecKind::ALL {
        let codec = kind.build();
        let stream = codec.compress(&data).unwrap();
        let decode = |bytes: &[u8]| codec.decompress(bytes).ok();
        sweep_flips(decode, &stream, &data, &kind.to_string());
        sweep_truncations(decode, &stream, &data, &kind.to_string());
        sweep_extensions(decode, &stream, &data, &kind.to_string());
    }
}

#[test]
fn gzip_streams_survive_mutation_sweeps() {
    let data = payload();
    let g = Gzip::default();
    let stream = g.compress(&data).unwrap();
    let decode = |bytes: &[u8]| g.decompress(bytes).ok();
    sweep_flips(decode, &stream, &data, "gzip");
    sweep_truncations(decode, &stream, &data, "gzip");
}

#[test]
fn primacy_streams_survive_mutation_sweeps() {
    let data = payload();
    let c = PrimacyCompressor::new(PrimacyConfig {
        chunk_bytes: 4096,
        ..Default::default()
    });
    let stream = c.compress_bytes(&data).unwrap();
    let decode = |bytes: &[u8]| c.decompress_bytes(bytes).ok();
    sweep_flips(decode, &stream, &data, "primacy-stream");
    sweep_truncations(decode, &stream, &data, "primacy-stream");
}

#[test]
fn primacy_archives_survive_mutation_sweeps() {
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
    let decode = |bytes: &[u8]| {
        let r = ArchiveReader::open(bytes).ok()?;
        let total = r.element_count() as usize;
        r.read_elements(0, total).ok()
    };
    sweep_flips(decode, &archive, &data, "primacy-archive");
    sweep_truncations(decode, &archive, &data, "primacy-archive");
}

#[test]
fn header_byte_exhaustive_mutation() {
    // Every possible value of every header byte: parsers must never panic.
    let data = payload();
    let c = PrimacyCompressor::new(PrimacyConfig::default());
    let stream = c.compress_bytes(&data).unwrap();
    for pos in 0..12.min(stream.len()) {
        for val in 0..=255u8 {
            let mut bad = stream.clone();
            bad[pos] = val;
            if let Ok(out) = c.decompress_bytes(&bad) {
                assert_eq!(out, data, "header byte {pos}={val} silently accepted");
            }
        }
    }
}
