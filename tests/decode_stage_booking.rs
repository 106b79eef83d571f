//! The chunk decoder books its time under the five decode stage names.
//!
//! The fused reassembly pass times its four steps per tile and books them
//! once per chunk as `linearize`, `idmap`, `isobar` and `split`; loading a
//! chunk's index counts under `idmap`, inflate is `deflate`, and `freq` has
//! no decode work. Random bytes carry a large index in every chunk, so an
//! unbooked index load shows there. Reports built on
//! `decompress_bytes_with_stats` (the traced benchmark, the `throughput`
//! smoke) expect every one of the five records and a stage sum that covers
//! the call's wall, so a decode change that drops a record or moves work
//! outside every stage fails here first.

use primacy_suite::core::{PrimacyCompressor, PrimacyConfig, StageTimings};
use primacy_suite::datagen::{DatasetId, Rng};
use std::time::{Duration, Instant};

/// Elements per input: eight 64 KiB chunks of doubles.
const ELEMENTS: usize = 1 << 16;

fn inputs() -> Vec<(&'static str, Vec<u8>)> {
    let mut random = vec![0u8; ELEMENTS * 8];
    Rng::seed_from_u64(22).fill_bytes(&mut random);
    vec![
        ("gts_phi_l", DatasetId::GtsPhiL.generate_bytes(ELEMENTS)),
        ("random", random),
    ]
}

#[test]
fn decode_books_five_stages_that_cover_the_wall() {
    let c = PrimacyCompressor::new(PrimacyConfig {
        chunk_bytes: 64 * 1024,
        ..Default::default()
    });
    for (name, bytes) in inputs() {
        let stream = c.compress_bytes(&bytes).unwrap();
        // Other tests run on the same cores, and a thread preempted between
        // stages widens the wall, so the best of three calls is held to the
        // bound.
        let mut best = 0f64;
        for _ in 0..3 {
            let t = Instant::now();
            let (out, stats) = c.decompress_bytes_with_stats(&stream).unwrap();
            let wall = t.elapsed();
            assert!(out == bytes, "{name}: decode differs");
            assert!(stats.chunks >= 8, "{name}: {} chunks", stats.chunks);
            let StageTimings {
                split,
                frequency_analysis,
                id_mapping,
                linearization,
                isobar,
                codec,
            } = stats.timings;
            for (stage, d) in [
                ("split", split),
                ("idmap", id_mapping),
                ("linearize", linearization),
                ("deflate", codec),
                ("isobar", isobar),
            ] {
                assert!(d > Duration::ZERO, "{name}: no {stage} decode time");
            }
            assert_eq!(frequency_analysis, Duration::ZERO, "{name}: freq");
            let sum = stats.timings.total();
            assert!(
                sum <= wall,
                "{name}: stages {sum:?} exceed the wall {wall:?}"
            );
            best = best.max(sum.as_secs_f64() / wall.as_secs_f64());
        }
        assert!(
            best >= 0.9,
            "{name}: decode stages cover {best:.3} of the wall"
        );
    }
}
