//! DEFLATE decode is visible to tracing on every container path.
//!
//! Raw [`inflate`], [`Zlib`] and [`Gzip`] all decode through
//! `decode::inflate_with`, which records the `deflate.decode` span and the
//! `deflate.decode_bytes_{in,out}` counters once per stream, so
//! `primacy decompress --trace` shows the codec's decode time whichever
//! container carried the stream.
//!
//! Tracing is process-global and cannot be switched off again, so this file
//! holds exactly one test and no sibling test can record into the window.

use primacy_codecs::deflate::{deflate, inflate, Gzip, Level, Zlib};
use primacy_codecs::{Codec, CodecScratch};
use primacy_trace as trace;

/// A deterministic, compressible plaintext that differs per `seed`.
fn plaintext(seed: u32, len: u32) -> Vec<u8> {
    (0..len).map(|i| ((i / 7 + i * seed) % 61) as u8).collect()
}

#[test]
fn every_deflate_path_records_one_decode_span() {
    let plain = [
        plaintext(3, 20_000),
        plaintext(5, 30_000),
        plaintext(11, 40_000),
    ];
    let raw = deflate(&plain[0], Level::Default);
    let zlib = Zlib::default().compress(&plain[1]).unwrap();
    let gzip = Gzip::default().compress(&plain[2]).unwrap();

    trace::enable();
    assert_eq!(inflate(&raw).unwrap(), plain[0]);
    assert_eq!(Zlib::default().decompress(&zlib).unwrap(), plain[1]);
    let mut scratch = CodecScratch::new();
    let mut out = Vec::new();
    Gzip::default()
        .decompress_into(&gzip, &mut scratch, &mut out)
        .unwrap();
    assert_eq!(out, plain[2]);
    trace::flush_thread();

    let agg = trace::snapshot();
    assert_eq!(agg.spans["deflate.decode"].count, 3, "{agg:?}");
    let plain_bytes: usize = plain.iter().map(Vec::len).sum();
    assert_eq!(agg.counter("deflate.decode_bytes_out"), plain_bytes as u64);
    // The counted input is the DEFLATE body: the zlib container adds a
    // 2-byte header and a 4-byte Adler-32, a plain gzip member a 10-byte
    // header and an 8-byte trailer.
    let body_bytes = raw.len() + (zlib.len() - 6) + (gzip.len() - 18);
    assert_eq!(agg.counter("deflate.decode_bytes_in"), body_bytes as u64);
}
