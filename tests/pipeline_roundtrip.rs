//! Integration: the full PRIMACY pipeline must be lossless over every
//! synthetic dataset and every configuration axis.

// Config tweaks read more clearly as sequential assignments here.
#![allow(clippy::field_reassign_with_default)]

use primacy_suite::codecs::CodecKind;
use primacy_suite::core::{
    ArchiveReader, ArchiveWriter, IndexPolicy, IsobarConfig, Linearization, PrimacyCompressor,
    PrimacyConfig,
};
use primacy_suite::datagen::{permute, DatasetId};

const N: usize = 1 << 14; // 16 Ki doubles = 128 KiB per dataset

fn roundtrip(c: &PrimacyCompressor, bytes: &[u8]) {
    let comp = c.compress_bytes(bytes).expect("compress");
    let back = c.decompress_bytes(&comp).expect("decompress");
    assert_eq!(back, bytes);
}

#[test]
fn all_datasets_roundtrip_default_config() {
    let c = PrimacyCompressor::new(PrimacyConfig::default());
    for id in DatasetId::ALL {
        let bytes = id.generate_bytes(N);
        roundtrip(&c, &bytes);
    }
}

#[test]
fn all_datasets_roundtrip_permuted() {
    let c = PrimacyCompressor::new(PrimacyConfig::default());
    for id in DatasetId::ALL {
        let values = permute(&id.generate(N));
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        roundtrip(&c, &bytes);
    }
}

#[test]
fn config_matrix_roundtrips() {
    let data = DatasetId::FlashVelx.generate_bytes(N);
    for codec in CodecKind::ALL {
        for linearization in [Linearization::Row, Linearization::Column] {
            for isobar_enabled in [true, false] {
                for policy in [
                    IndexPolicy::PerChunk,
                    IndexPolicy::Reuse {
                        correlation_threshold: 0.8,
                    },
                ] {
                    let cfg = PrimacyConfig {
                        codec,
                        linearization,
                        chunk_bytes: 32 * 1024,
                        index_policy: policy,
                        isobar: IsobarConfig {
                            enabled: isobar_enabled,
                            ..Default::default()
                        },
                        ..Default::default()
                    };
                    let c = PrimacyCompressor::new(cfg);
                    roundtrip(&c, &data);
                }
            }
        }
    }
}

#[test]
fn chunk_boundary_sizes_roundtrip() {
    let mut cfg = PrimacyConfig::default();
    cfg.chunk_bytes = 1024; // 128 doubles per chunk
    let c = PrimacyCompressor::new(cfg);
    // Exercise off-by-one element counts around the chunk boundary.
    for n in [1usize, 127, 128, 129, 255, 256, 257, 1000] {
        let bytes = DatasetId::ObsTemp.generate_bytes(n);
        roundtrip(&c, &bytes);
    }
}

#[test]
fn parallel_compression_interoperates_with_serial_decompression() {
    let bytes = DatasetId::NumPlasma.generate_bytes(1 << 16);
    let mut cfg = PrimacyConfig::default();
    cfg.chunk_bytes = 64 * 1024;
    let c = PrimacyCompressor::new(cfg);
    for threads in [1, 2, 8] {
        let comp = c
            .compress_bytes_parallel(&bytes, threads)
            .expect("compress");
        assert_eq!(c.decompress_bytes(&comp).expect("decompress"), bytes);
    }
}

#[test]
fn streams_decompress_across_differently_configured_instances() {
    // The stream header carries everything needed; reader config must not
    // matter.
    let bytes = DatasetId::MsgSp.generate_bytes(N);
    let mut writer_cfg = PrimacyConfig::default();
    writer_cfg.codec = CodecKind::Lzr;
    writer_cfg.linearization = Linearization::Row;
    writer_cfg.chunk_bytes = 16 * 1024;
    let writer = PrimacyCompressor::new(writer_cfg);
    let comp = writer.compress_bytes(&bytes).expect("compress");

    let mut reader_cfg = PrimacyConfig::default();
    reader_cfg.codec = CodecKind::Bwt;
    let reader = PrimacyCompressor::new(reader_cfg);
    assert_eq!(reader.decompress_bytes(&comp).expect("decompress"), bytes);
}

#[test]
fn compression_is_deterministic() {
    let bytes = DatasetId::GtsPhiL.generate_bytes(N);
    let c = PrimacyCompressor::new(PrimacyConfig::default());
    let a = c.compress_bytes(&bytes).expect("compress");
    let b = c.compress_bytes(&bytes).expect("compress");
    assert_eq!(a, b);
}

#[test]
fn corrupted_streams_error_not_panic() {
    let bytes = DatasetId::ObsError.generate_bytes(N);
    let c = PrimacyCompressor::new(PrimacyConfig::default());
    let comp = c.compress_bytes(&bytes).expect("compress");
    // Flip one byte at a sweep of positions; every outcome must be an Err
    // (never a panic, never silently wrong data).
    for pos in (0..comp.len()).step_by(97) {
        let mut bad = comp.clone();
        bad[pos] ^= 0x5A;
        if let Ok(out) = c.decompress_bytes(&bad) {
            // A flip in ignored padding would be the only acceptable Ok —
            // and then the data must still be intact.
            assert_eq!(out, bytes, "flip at {pos} silently corrupted data");
        }
    }
}

#[test]
fn truncated_streams_error_not_panic() {
    let bytes = DatasetId::NumBrain.generate_bytes(N);
    let c = PrimacyCompressor::new(PrimacyConfig::default());
    let comp = c.compress_bytes(&bytes).expect("compress");
    for keep in (0..comp.len()).step_by(53) {
        assert!(c.decompress_bytes(&comp[..keep]).is_err());
    }
}

#[test]
fn chunks_whose_hi_bytes_take_every_value_roundtrip_on_every_path() {
    // Two 512 KiB chunks in each of which the 2-byte hi sequences take all
    // 65,536 values once (k = 65,536, the whole ID domain), under random
    // mantissas.
    let mut x = 1u64;
    let bytes: Vec<u8> = (0..2 * 65_536u64)
        .flat_map(|i| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let hi = (i as u16).wrapping_mul(40_503);
            (u64::from(hi) << 48 | x >> 16).to_le_bytes()
        })
        .collect();
    let mut cfg = PrimacyConfig::default();
    cfg.chunk_bytes = 512 * 1024;
    let c = PrimacyCompressor::new(cfg.clone());
    for stream in [
        c.compress_bytes(&bytes).expect("compress"),
        c.compress_bytes_parallel(&bytes, 2)
            .expect("parallel compress"),
    ] {
        assert_eq!(c.decompress_bytes(&stream).expect("decompress"), bytes);
    }
    let mut sequential = ArchiveWriter::new(Vec::new(), cfg.clone()).expect("writer");
    let mut overlapped = ArchiveWriter::with_overlap(Vec::new(), cfg, 2).expect("writer");
    sequential.append(&bytes).expect("append");
    overlapped.append(&bytes).expect("append");
    for archive in [sequential, overlapped].map(|w| w.finish().expect("finish")) {
        let reader = ArchiveReader::open(&archive).expect("open");
        assert_eq!(reader.read_all_parallel(2).expect("read"), bytes);
    }
}
