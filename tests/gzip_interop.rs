//! Interoperability: our DEFLATE implementation against the system `gzip`.
//!
//! This is the strongest possible conformance check for the zlib-substitute
//! codec — real-world gzip must decode our streams and we must decode its.
//! The tests are skipped (pass vacuously) on hosts without a `gzip` binary.

use primacy_suite::codecs::deflate::{Gzip, Level};
use primacy_suite::codecs::Codec;
use std::io::Write;
use std::process::{Command, Stdio};

fn gzip_available() -> bool {
    Command::new("gzip")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn run_filter(cmd: &str, args: &[&str], input: &[u8]) -> Option<Vec<u8>> {
    let mut child = Command::new(cmd)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    child.stdin.take()?.write_all(input).ok()?;
    let out = child.wait_with_output().ok()?;
    if out.status.success() {
        Some(out.stdout)
    } else {
        None
    }
}

fn test_payloads() -> Vec<Vec<u8>> {
    let mut x = 0xA5A5_5A5Au64;
    vec![
        Vec::new(),
        b"a".to_vec(),
        b"hello gzip interop hello gzip interop".repeat(40),
        (0..100_000u32).map(|i| ((i / 9) % 251) as u8).collect(),
        (0..50_000)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect(),
    ]
}

#[test]
fn system_gunzip_decodes_our_streams() {
    if !gzip_available() {
        eprintln!("gzip not found; skipping interop test");
        return;
    }
    for (i, payload) in test_payloads().iter().enumerate() {
        for level in [Level::Fast, Level::Default, Level::Best] {
            let ours = Gzip::with_level(level).compress(payload).expect("compress");
            let theirs = run_filter("gzip", &["-dc"], &ours)
                .unwrap_or_else(|| panic!("gunzip rejected our stream (payload {i}, {level:?})"));
            assert_eq!(&theirs, payload, "payload {i} at {level:?}");
        }
    }
}

#[test]
fn we_decode_system_gzip_streams() {
    if !gzip_available() {
        eprintln!("gzip not found; skipping interop test");
        return;
    }
    let g = Gzip::default();
    for (i, payload) in test_payloads().iter().enumerate() {
        for flag in ["-1", "-6", "-9"] {
            let theirs = run_filter("gzip", &["-c", flag], payload).expect("system gzip runs");
            let ours = g
                .decompress(&theirs)
                .unwrap_or_else(|e| panic!("payload {i} at {flag}: {e}"));
            assert_eq!(&ours, payload, "payload {i} at {flag}");
        }
    }
}

#[test]
fn crossing_both_ways_is_stable() {
    if !gzip_available() {
        return;
    }
    // ours -> gunzip -> gzip -> ours
    let payload = b"double crossing payload ".repeat(123);
    let ours = Gzip::default().compress(&payload).expect("compress");
    let plain = run_filter("gzip", &["-dc"], &ours).expect("gunzip accepts");
    let theirs = run_filter("gzip", &["-c"], &plain).expect("gzip runs");
    let back = Gzip::default()
        .decompress(&theirs)
        .expect("we accept gzip output");
    assert_eq!(back, payload);
}
