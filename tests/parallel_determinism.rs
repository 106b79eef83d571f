//! Parallel determinism (ISSUE 3 satellite): threading must never change
//! bytes.
//!
//! The paper's deployment story (§V) runs the preconditioner on every
//! compute node over its own shard; the repo's analogues are
//! `compress_bytes_parallel` and `ArchiveReader::read_all_parallel`. Both
//! partition work by chunk and write results by chunk index, so the output
//! must be byte-identical to the serial path for *any* thread count —
//! including thread counts above the chunk count and inputs whose final
//! chunk is a ragged tail.

use primacy_suite::core::{
    ArchiveReader, ArchiveWriter, ElementReader, IndexPolicy, PrimacyCompressor, PrimacyConfig,
};
use primacy_suite::datagen::DatasetId;
use std::io::Read;

/// Thread counts exercised everywhere: serial-equivalent (1), small (2),
/// odd and prime (7), and more threads than this container has cores or
/// most inputs have chunks (16).
const THREADS: [usize; 4] = [1, 2, 7, 16];

fn compressor(chunk_bytes: usize) -> PrimacyCompressor {
    PrimacyCompressor::new(PrimacyConfig {
        chunk_bytes,
        ..Default::default()
    })
}

#[test]
fn parallel_compress_matches_serial_across_thread_counts() {
    // 1237 elements: prime, so every chunk size below leaves a ragged tail.
    let input = DatasetId::GtsPhiL.generate_bytes(1237);
    // 128-, 97-, and 1237-element chunks: many chunks, non-divisible chunk
    // count, and a single chunk (fewer chunks than threads).
    for chunk_bytes in [1024, 97 * 8, 1237 * 8] {
        let c = compressor(chunk_bytes);
        let serial = c.compress_bytes(&input).expect("serial compress");
        for threads in THREADS {
            let parallel = c
                .compress_bytes_parallel(&input, threads)
                .expect("parallel compress");
            assert_eq!(
                parallel, serial,
                "chunk_bytes={chunk_bytes} threads={threads}: parallel output \
                 differs from serial"
            );
        }
        // And the parallel container still decodes to the input.
        assert_eq!(
            c.decompress_bytes(&serial).expect("decompress"),
            input,
            "chunk_bytes={chunk_bytes}: container does not round-trip"
        );
    }
}

#[test]
fn parallel_compress_matches_serial_on_divisible_input() {
    // 512 elements over 128-element chunks: exactly four full chunks, no
    // tail — the complementary case to the ragged input above.
    let input = DatasetId::ObsError.generate_bytes(512);
    let c = compressor(1024);
    let serial = c.compress_bytes(&input).expect("serial compress");
    for threads in THREADS {
        assert_eq!(
            c.compress_bytes_parallel(&input, threads)
                .expect("parallel compress"),
            serial,
            "threads={threads}: divisible input not deterministic"
        );
    }
}

#[test]
fn archive_read_all_parallel_matches_serial() {
    // Two datasets, ragged tails: 1237 elements over 128-element chunks
    // (9 full + 85-element tail) and over 97-element chunks.
    for id in [DatasetId::GtsPhiL, DatasetId::ObsError] {
        let input = id.generate_bytes(1237);
        for chunk_bytes in [1024, 97 * 8] {
            let mut w = ArchiveWriter::new(
                Vec::new(),
                PrimacyConfig {
                    chunk_bytes,
                    ..Default::default()
                },
            )
            .expect("valid config");
            w.append(&input).expect("element-aligned");
            let archive = w.finish().expect("finishes");
            let r = ArchiveReader::open(&archive).expect("parses");
            let serial = r.read_all_parallel(1).expect("serial read");
            assert_eq!(serial, input, "{id}: archive does not round-trip");
            for threads in THREADS {
                assert_eq!(
                    r.read_all_parallel(threads).expect("parallel read"),
                    serial,
                    "{id} chunk_bytes={chunk_bytes} threads={threads}: \
                     parallel read differs from serial"
                );
            }
        }
    }
}

#[test]
fn parallel_compress_repeated_runs_are_stable() {
    // Scheduling nondeterminism must not leak into bytes: the same call
    // repeated with the same thread count always produces the same output.
    let input = DatasetId::ObsError.generate_bytes(777);
    let c = compressor(1024);
    let first = c.compress_bytes_parallel(&input, 7).expect("compress");
    for _ in 0..5 {
        assert_eq!(
            c.compress_bytes_parallel(&input, 7).expect("compress"),
            first,
            "repeated parallel runs disagree"
        );
    }
}

#[test]
fn index_reuse_stays_off_where_chunks_must_stand_alone() {
    // Stationary data: every 128-element chunk holds the same four hi
    // sequences equally often, so the serial stream reuses its first index.
    let input: Vec<u8> = (0..4096u64)
        .flat_map(|i| ((1 + i % 4) as f64 + (i * 7919 % 1000) as f64 * 1e-6).to_le_bytes())
        .collect();
    let cfg = PrimacyConfig {
        chunk_bytes: 1024,
        index_policy: IndexPolicy::Reuse {
            correlation_threshold: 0.5,
        },
        ..Default::default()
    };
    let c = PrimacyCompressor::new(cfg.clone());
    let (_, serial) = c
        .compress_bytes_with_stats(&input)
        .expect("serial compress");
    assert_eq!(serial.own_index_chunks, 1, "the serial stream must reuse");

    // The parallel stream's workers never reuse an index: every chunk
    // carries its own, whichever chunk a worker's scratch encoded before.
    for threads in THREADS {
        let stream = c
            .compress_bytes_parallel(&input, threads)
            .expect("parallel compress");
        let (plain, stats) = c.decompress_bytes_with_stats(&stream).expect("decode");
        assert_eq!(plain, input, "threads={threads}");
        assert_eq!(stats.own_index_chunks, stats.chunks, "threads={threads}");
    }

    // Neither archive writer reuses one either, so every chunk reads back on
    // its own, in any order.
    let mut sequential = ArchiveWriter::new(Vec::new(), cfg.clone()).expect("writer");
    let mut overlapped = ArchiveWriter::with_overlap(Vec::new(), cfg, 2).expect("writer");
    sequential.append(&input).expect("append");
    overlapped.append(&input).expect("append");
    for archive in [sequential, overlapped].map(|w| w.finish().expect("finish")) {
        let reader = ArchiveReader::open(&archive).expect("open");
        assert_eq!(
            reader.read_all_parallel(2).expect("read_all_parallel"),
            input
        );
        let mut streamed = Vec::new();
        ElementReader::new(&reader)
            .read_to_end(&mut streamed)
            .expect("ElementReader");
        assert_eq!(streamed, input);
    }
}
