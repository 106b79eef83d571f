//! Known answers for the deflate encoder at the scale PRIMACY runs it.
//!
//! The golden vectors pin container bytes on inputs of a few kilobytes,
//! where the match finder's chains are short and its lazy search rarely
//! meets a pending match as long as `nice_length`. A token change that only
//! shows on megabyte streams passes them. This file pins the length and
//! CRC-32 of `Zlib` output (past its 2-byte header) on the two streams
//! PRIMACY hands its solver — the ID-mapped hi stream and ISOBAR's
//! compressible lo stream — of one default-size chunk each of three
//! datasets (built by the pipeline's encoder, `pipeline::precondition`),
//! and on raw bytes of the same datasets. `Fast` and `Default` cover whole
//! streams; `Best` covers a slice from the middle of each, since its
//! 1024-link chains are slow under the debug profile.
//!
//! The answers change only when the encoder's tokens or block choices
//! change. An encoder speedup must keep them; an intentional token change
//! regenerates them from the failure message, as the golden vectors are
//! rotated (tests/README.md).

use primacy_suite::codecs::checksum::crc32;
use primacy_suite::codecs::deflate::{Level, Zlib};
use primacy_suite::codecs::Codec;
use primacy_suite::core::pipeline::precondition;
use primacy_suite::core::{EncodeScratch, PrimacyConfig};
use primacy_suite::datagen::DatasetId;

/// Bytes of each stream `Best` compresses, from its middle: the start of a
/// column-linearized hi stream is one near-constant byte column.
const BEST_SLICE: usize = 64 << 10;

/// `(case, compressed length, CRC-32 of the compressed bytes after the
/// header)`; a case is `dataset/stream/level`.
const ANSWERS: &[(&str, usize, u32)] = &[
    ("gts_phi_l/hi/fast", 233414, 0x0be35a47),
    ("gts_phi_l/hi/default", 235030, 0xf7015f27),
    ("gts_phi_l/hi/best", 20733, 0xdf9dce88),
    ("gts_phi_l/lo/fast", 11, 0xa8d55c3b),
    ("gts_phi_l/lo/default", 11, 0xa8d55c3b),
    ("gts_phi_l/lo/best", 11, 0xa8d55c3b),
    ("gts_phi_l/raw/fast", 3000292, 0x9d6cb7a2),
    ("gts_phi_l/raw/default", 3000272, 0xf4b1adcf),
    ("gts_phi_l/raw/best", 62857, 0xd9fe7fca),
    ("num_plasma/hi/fast", 196758, 0x0fdbd773),
    ("num_plasma/hi/default", 196069, 0x98865b31),
    ("num_plasma/hi/best", 17140, 0x144c2d31),
    ("num_plasma/lo/fast", 121302, 0x79af0cfb),
    ("num_plasma/lo/default", 121847, 0x96a0348f),
    ("num_plasma/lo/best", 85, 0xeb78d4f7),
    ("num_plasma/raw/fast", 1957534, 0x01067420),
    ("num_plasma/raw/default", 1955834, 0x87eec9b4),
    ("num_plasma/raw/best", 40522, 0x31489ab8),
    ("obs_error/hi/fast", 485854, 0x6183cdee),
    ("obs_error/hi/default", 483558, 0x26ec7d8e),
    ("obs_error/hi/best", 41316, 0x941ae845),
    ("obs_error/lo/fast", 1453505, 0x531ec452),
    ("obs_error/lo/default", 1453208, 0xa6d1ca38),
    ("obs_error/lo/best", 60774, 0xc3c6a212),
    ("obs_error/raw/fast", 2279556, 0x8af63768),
    ("obs_error/raw/default", 2265829, 0x87f003a5),
    ("obs_error/raw/best", 47210, 0x01f6f42e),
];

/// The `len` bytes (or fewer) at the middle of `bytes`.
fn middle(bytes: &[u8], len: usize) -> &[u8] {
    let start = bytes.len().saturating_sub(len) / 2;
    &bytes[start..(start + len).min(bytes.len())]
}

/// Every case of one dataset: `(case, compressed length, CRC-32)`.
fn cases(id: DatasetId) -> Vec<(String, usize, u32)> {
    let cfg = PrimacyConfig::default();
    let chunk = id.generate_bytes(cfg.chunk_elements());
    let pre = precondition(&cfg, &chunk, false, &mut EncodeScratch::new()).unwrap();
    let (hi, lo) = (pre.ids, pre.compressible);
    let mut out = Vec::new();
    for (stream, bytes) in [("hi", &hi[..]), ("lo", &lo[..]), ("raw", &chunk[..])] {
        for (level, name, input) in [
            (Level::Fast, "fast", bytes),
            (Level::Default, "default", bytes),
            (Level::Best, "best", middle(bytes, BEST_SLICE)),
        ] {
            let z = Zlib::with_level(level).compress(input).expect("compress");
            // The 2-byte header only names the level; zlib's unit tests pin it.
            out.push((
                format!("{}/{stream}/{name}", id.name()),
                z.len(),
                crc32(&z[2..]),
            ));
        }
    }
    out
}

fn check(id: DatasetId) {
    let got = cases(id);
    let table: String = got
        .iter()
        .map(|(case, len, crc)| format!("    (\"{case}\", {len}, 0x{crc:08x}),\n"))
        .collect();
    let mut wrong = Vec::new();
    for (case, len, crc) in &got {
        match ANSWERS.iter().find(|a| a.0 == case) {
            Some(&(_, want_len, want_crc)) if (want_len, want_crc) == (*len, *crc) => {}
            Some(&(_, want_len, want_crc)) => wrong.push(format!(
                "{case}: got {len} B crc {crc:08x}, want {want_len} B crc {want_crc:08x}"
            )),
            None => wrong.push(format!("{case}: no answer")),
        }
    }
    assert!(
        wrong.is_empty(),
        "encoder output moved:\n{}\nthis build's answers:\n{table}",
        wrong.join("\n")
    );
}

#[test]
fn gts_phi_l_streams_keep_their_bytes() {
    check(DatasetId::GtsPhiL);
}

#[test]
fn num_plasma_streams_keep_their_bytes() {
    check(DatasetId::NumPlasma);
}

#[test]
fn obs_error_streams_keep_their_bytes() {
    check(DatasetId::ObsError);
}
