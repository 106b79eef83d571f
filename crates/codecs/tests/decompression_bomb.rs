//! Decompression-bomb regressions: tiny forged streams that *declare*
//! enormous outputs must fail fast with a typed error — no panic, no
//! allocation or loop proportional to the declared (rather than actual)
//! size. Each forged stream here is under 100 bytes but claims terabytes.

use primacy_codecs::bwt::BwtCodec;
use primacy_codecs::fpz::{Fpz, MAX_ELEMENTS_PER_BYTE};
use primacy_codecs::lzr::Lzr;
use primacy_codecs::{write_varint, Codec};

#[test]
fn fpz_rejects_implausible_element_count() {
    // Rank-1 stream claiming 2^40 doubles backed by a 16-byte payload.
    let mut stream = b"FPZ1".to_vec();
    stream.push(1); // rank
    write_varint(&mut stream, 1 << 40);
    stream.extend_from_slice(&[0u8; 16]); // "payload"
    stream.extend_from_slice(&[0u8; 4]); // "crc"
    let err = Fpz::default().decompress_f64(&stream);
    assert!(err.is_err(), "2^40-element claim must be rejected");
}

#[test]
fn fpz_overrun_guard_stops_zero_synthesis() {
    // A count that squeaks under the plausibility cap over a minimal 5-byte
    // coder preamble: the decoder runs out of real bytes almost immediately
    // and must stop via the overrun guard, not decode millions of zeros.
    let body_len = 5usize;
    let count = body_len * MAX_ELEMENTS_PER_BYTE;
    let mut stream = b"FPZ1".to_vec();
    stream.push(1);
    write_varint(&mut stream, count as u64);
    stream.extend_from_slice(&vec![0u8; body_len]);
    stream.extend_from_slice(&[0u8; 4]);
    let err = Fpz::default().decompress_f64(&stream);
    assert!(err.is_err(), "overrun past the payload must be an error");
}

#[test]
fn lzr_huge_declared_length_fails_without_huge_allocation() {
    // Valid magic, orig_len = 2^50, then an empty-ish body: the decoder must
    // hit Truncated once the body runs dry, with its preallocation clamped.
    let mut stream = b"LZR1".to_vec();
    write_varint(&mut stream, 1 << 50);
    stream.push(0x10); // one literal...
    stream.push(b'x'); // ...which leaves the stream short of its claim
    stream.extend_from_slice(&[0u8; 4]);
    assert!(Lzr.decompress(&stream).is_err());
}

#[test]
fn bwt_huge_declared_length_fails_without_huge_allocation() {
    let mut stream = b"BWT1".to_vec();
    write_varint(&mut stream, 1 << 50);
    stream.extend_from_slice(&[0u8; 8]); // not enough blocks to satisfy it
    assert!(BwtCodec::default().decompress(&stream).is_err());
}

#[test]
fn truncating_a_real_fpz_stream_is_detected() {
    // End-to-end: a genuine stream cut mid-payload must error via the
    // checksum/overrun path for every truncation point.
    let values: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin()).collect();
    let full = Fpz::default().compress_f64(&values).unwrap();
    for cut in [10, full.len() / 2, full.len() - 5] {
        assert!(
            Fpz::default().decompress_f64(&full[..cut]).is_err(),
            "truncation at {cut} must not roundtrip"
        );
    }
}
