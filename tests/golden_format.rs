//! Golden-vector conformance suite: pins the PRIMACY container format
//! (ISSUE 3 satellite).
//!
//! Each vector in `tests/golden/` is the hex dump of a full container —
//! stream form (`compress_bytes`) or archive form (`ArchiveWriter`) — built
//! from a seeded `primacy-datagen` input under a pinned configuration. The
//! tests assert two directions:
//!
//! * **encode**: compressing the regenerated input today produces the
//!   committed bytes exactly — any format drift (header layout, section
//!   framing, index encoding, deflate token choices, CRC placement) fails
//!   loudly instead of silently breaking old archives;
//! * **decode**: the committed bytes decode back to the exact input — the
//!   decoder keeps accepting containers written by every build since the
//!   vectors were recorded.
//!
//! Two independent seeds are pinned (acceptance criterion): `gts_phi_l` and
//! `obs_error` draw from different generator recipes with different seeds.
//!
//! To rotate vectors after an *intentional* encoder change (see
//! `tests/README.md` for the full workflow): first copy the current
//! `tests/golden/*.hex` into `tests/golden/legacy/` with a `_vN` suffix so
//! they keep gating the decoder, then regenerate the encode vectors with
//! `PRIMACY_REGEN_GOLDEN=1 cargo test --test golden_format`, commit both, and
//! call out the encoder change in the PR. Legacy vectors are decode-only:
//! the encoder is free to emit different (better) bytes, but every container
//! ever committed must keep decoding byte-exactly.

use primacy_suite::core::{ArchiveWriter, PrimacyCompressor, PrimacyConfig};
use primacy_suite::datagen::DatasetId;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Chunk size pinned for the vectors: 1 KiB = 128 doubles, so the 300-element
/// inputs span two full chunks plus a 44-element tail — the vectors cover
/// multi-chunk framing and the non-divisible final chunk.
const GOLDEN_CHUNK_BYTES: usize = 1024;
/// Elements per vector (2400 bytes of input).
const GOLDEN_ELEMENTS: usize = 300;

/// The two independently seeded datasets pinned by the suite.
const GOLDEN_DATASETS: [DatasetId; 2] = [DatasetId::GtsPhiL, DatasetId::ObsError];

fn golden_config() -> PrimacyConfig {
    PrimacyConfig {
        chunk_bytes: GOLDEN_CHUNK_BYTES,
        ..Default::default()
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && i % 32 == 0 {
            s.push('\n');
        }
        let _ = write!(s, "{b:02x}");
    }
    s.push('\n');
    s
}

fn from_hex(text: &str) -> Vec<u8> {
    let digits: Vec<u32> = text
        .lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .flat_map(|line| line.chars())
        .filter(|c| !c.is_whitespace())
        .map(|c| c.to_digit(16).expect("golden files contain only hex"))
        .collect();
    assert!(
        digits.len().is_multiple_of(2),
        "odd number of hex digits in golden file"
    );
    digits
        .chunks_exact(2)
        .map(|pair| (pair[0] * 16 + pair[1]) as u8)
        .collect()
}

/// Render one golden file: a provenance header (comment lines) plus the hex
/// body. The header is informational; `from_hex` skips `#` lines.
fn render_golden(id: DatasetId, container: &str, bytes: &[u8]) -> String {
    format!(
        "# PRIMACY golden vector — do not edit by hand.\n\
         # container: {container}\n\
         # dataset:   {} ({GOLDEN_ELEMENTS} doubles, seeded primacy-datagen)\n\
         # config:    chunk_bytes={GOLDEN_CHUNK_BYTES}, defaults otherwise\n\
         # regen:     PRIMACY_REGEN_GOLDEN=1 cargo test --test golden_format\n\
         {}",
        id.name(),
        to_hex(bytes)
    )
}

fn stream_vector(id: DatasetId) -> (Vec<u8>, Vec<u8>) {
    let input = id.generate_bytes(GOLDEN_ELEMENTS);
    let compressor = PrimacyCompressor::new(golden_config());
    let container = compressor.compress_bytes(&input).expect("compress");
    (input, container)
}

fn archive_vector(id: DatasetId) -> (Vec<u8>, Vec<u8>) {
    let input = id.generate_bytes(GOLDEN_ELEMENTS);
    let mut w = ArchiveWriter::new(Vec::new(), golden_config()).expect("valid config");
    w.append(&input).expect("element-aligned");
    let container = w.finish().expect("finishes");
    (input, container)
}

fn check_vector(id: DatasetId, container_kind: &str, input: &[u8], produced: &[u8]) {
    let path = golden_dir().join(format!("{}_{container_kind}.hex", id.name()));
    if std::env::var_os("PRIMACY_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, render_golden(id, container_kind, produced))
            .expect("write golden vector");
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden vector {}: {e}", path.display()));
    let golden = from_hex(&text);

    // Encode direction: today's encoder reproduces the committed bytes.
    assert_eq!(
        produced,
        golden.as_slice(),
        "{} {container_kind}: encoder output drifted from the golden vector \
         ({} bytes produced vs {} committed). If the format change is \
         intentional, regenerate with PRIMACY_REGEN_GOLDEN=1 and document it.",
        id.name(),
        produced.len(),
        golden.len(),
    );

    // Decode direction: the committed bytes (not the freshly produced ones)
    // still decode to the exact input.
    let decoded = match container_kind {
        "stream" => PrimacyCompressor::new(golden_config())
            .decompress_bytes(&golden)
            .expect("golden stream decodes"),
        "archive" => {
            let r =
                primacy_suite::core::ArchiveReader::open(&golden).expect("golden archive opens");
            r.read_elements(0, r.element_count() as usize)
                .expect("golden archive reads")
        }
        other => panic!("unknown container kind {other}"),
    };
    assert_eq!(
        decoded,
        input,
        "{} {container_kind}: golden bytes did not round-trip to the input",
        id.name()
    );
}

#[test]
fn stream_vectors_are_byte_exact() {
    for id in GOLDEN_DATASETS {
        let (input, container) = stream_vector(id);
        // Multi-chunk by construction: 300 elements over 128-element chunks.
        check_vector(id, "stream", &input, &container);
    }
}

#[test]
fn archive_vectors_are_byte_exact() {
    for id in GOLDEN_DATASETS {
        let (input, container) = archive_vector(id);
        check_vector(id, "archive", &input, &container);
    }
}

/// Decode-only compatibility gate: every vector under `tests/golden/legacy/`
/// was written by some previous build's encoder and must keep decoding to
/// the exact seeded input, even though today's encoder produces different
/// bytes (e.g. the skip-ahead match finder changed token choices). This is
/// the format-stability half of the golden suite that vector rotation never
/// retires.
#[test]
fn legacy_vectors_still_decode() {
    let legacy = golden_dir().join("legacy");
    let mut checked = 0usize;
    for id in GOLDEN_DATASETS {
        let input = id.generate_bytes(GOLDEN_ELEMENTS);
        for kind in ["stream", "archive"] {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&legacy)
                .expect("tests/golden/legacy exists")
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(&format!("{}_{kind}_v", id.name())))
                })
                .collect();
            entries.sort();
            for path in entries {
                let golden = from_hex(&std::fs::read_to_string(&path).expect("readable vector"));
                let decoded = match kind {
                    "stream" => PrimacyCompressor::new(golden_config())
                        .decompress_bytes(&golden)
                        .unwrap_or_else(|e| panic!("{} fails to decode: {e}", path.display())),
                    _ => {
                        let r = primacy_suite::core::ArchiveReader::open(&golden)
                            .unwrap_or_else(|e| panic!("{} fails to open: {e}", path.display()));
                        r.read_elements(0, r.element_count() as usize)
                            .unwrap_or_else(|e| panic!("{} fails to read: {e}", path.display()))
                    }
                };
                assert_eq!(
                    decoded,
                    input,
                    "{}: legacy container no longer decodes to its input",
                    path.display()
                );
                checked += 1;
            }
        }
    }
    // One generation of legacy vectors exists today (the pre-skip-ahead
    // encoder); rotation only ever grows this.
    assert!(
        checked >= GOLDEN_DATASETS.len() * 2,
        "legacy gate found only {checked} vectors — rotation must never delete them"
    );
}

// ---------------------------------------------------------------------------
// Serve wire-format vectors (ISSUE 8 satellite)
//
// The `primacy-serve` frame layout is pinned the same way as the container:
// a deterministic sequence of request frames (every opcode and codec
// selector, edge-case ids, varying payload sizes) and response frames
// (every status byte) is byte-compared against `tests/golden/serve_*.hex`.
// Rotation follows the same PRIMACY_REGEN_GOLDEN workflow, with one
// difference of policy: the wire protocol is versioned (`protocol::VERSION`),
// so an intentional layout change must bump the version byte *and*
// regenerate, never silently alter the meaning of version 1.
// ---------------------------------------------------------------------------

use primacy_suite::serve::protocol::{read_frame, Op, Request, Response, ServeCodec, Status};

/// Deterministic payload for serve vectors: the first `len` bytes of a
/// seeded dataset.
fn serve_payload(len: usize) -> Vec<u8> {
    let mut bytes = DatasetId::GtsPhiL.generate_bytes(len.div_ceil(8).max(1));
    bytes.truncate(len);
    bytes
}

/// Every opcode and codec selector, plus id edge cases and payload sizes
/// 0 / 8 / 100 bytes.
fn serve_request_fixture() -> Vec<Request> {
    let mut requests = Vec::new();
    for (i, codec) in ServeCodec::ALL.into_iter().enumerate() {
        requests.push(Request {
            op: Op::Compress,
            codec,
            request_id: i as u64,
            tenant: 1000 + i as u64,
            payload: serve_payload(8 * i),
        });
    }
    requests.push(Request {
        op: Op::Decompress,
        codec: ServeCodec::Zlib,
        request_id: u64::MAX,
        tenant: u64::MAX,
        payload: serve_payload(100),
    });
    requests.push(Request {
        op: Op::Ping,
        codec: ServeCodec::Primacy,
        request_id: 0,
        tenant: 0,
        payload: Vec::new(),
    });
    requests
}

/// Every status byte with representative echoes and payloads.
fn serve_response_fixture() -> Vec<Response> {
    let statuses = [
        Status::Ok,
        Status::Busy,
        Status::Timeout,
        Status::BadRequest,
        Status::CodecFailed,
        Status::TooLarge,
        Status::ShuttingDown,
        Status::Internal,
    ];
    statuses
        .into_iter()
        .enumerate()
        .map(|(i, status)| Response {
            status,
            op_echo: Op::Compress.to_byte(),
            codec_echo: ServeCodec::ALL[i % ServeCodec::ALL.len()].to_byte(),
            request_id: 0x0102_0304_0506_0708 ^ i as u64,
            tenant: 40 + i as u64,
            payload: if status == Status::Ok {
                serve_payload(64)
            } else {
                format!("{status}").into_bytes()
            },
        })
        .collect()
}

fn render_serve_golden(kind: &str, count: usize, bytes: &[u8]) -> String {
    format!(
        "# PRIMACY golden vector — do not edit by hand.\n\
         # container: serve wire protocol v1 ({kind} frames)\n\
         # frames:    {count} length-prefixed frames, concatenated\n\
         # regen:     PRIMACY_REGEN_GOLDEN=1 cargo test --test golden_format\n\
         {}",
        to_hex(bytes)
    )
}

/// Pin `produced` against `tests/golden/serve_{kind}.hex` and hand the
/// committed bytes back for the decode direction.
fn check_serve_vector(kind: &str, count: usize, produced: &[u8]) -> Vec<u8> {
    let path = golden_dir().join(format!("serve_{kind}.hex"));
    if std::env::var_os("PRIMACY_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, render_serve_golden(kind, count, produced))
            .expect("write golden vector");
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden vector {}: {e}", path.display()));
    let golden = from_hex(&text);
    assert_eq!(
        produced,
        golden.as_slice(),
        "serve {kind}: encoder output drifted from the golden vector \
         ({} bytes produced vs {} committed). The wire protocol is versioned: \
         an intentional change must bump protocol::VERSION and regenerate \
         with PRIMACY_REGEN_GOLDEN=1.",
        produced.len(),
        golden.len(),
    );
    golden
}

/// Read a concatenated frame sequence into bodies; the whole buffer must
/// be consumed exactly.
fn split_all(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut bodies = Vec::new();
    while !bytes.is_empty() {
        let body = read_frame(&mut bytes, usize::MAX / 2)
            .expect("golden frames parse")
            .expect("golden frames are complete");
        bodies.push(body);
    }
    bodies
}

#[test]
fn serve_request_frames_are_byte_exact() {
    let requests = serve_request_fixture();
    let produced: Vec<u8> = requests
        .iter()
        .flat_map(|r| r.encode_frame().expect("fixture encodes"))
        .collect();
    let golden = check_serve_vector("request", requests.len(), &produced);

    // Decode direction: the committed frames parse back to the fixture.
    let bodies = split_all(&golden);
    assert_eq!(bodies.len(), requests.len());
    for (body, expected) in bodies.iter().zip(&requests) {
        assert_eq!(
            &Request::decode(body).expect("golden request decodes"),
            expected
        );
    }
}

#[test]
fn serve_response_frames_are_byte_exact() {
    let responses = serve_response_fixture();
    let produced: Vec<u8> = responses
        .iter()
        .flat_map(|r| r.encode_frame().expect("fixture encodes"))
        .collect();
    let golden = check_serve_vector("response", responses.len(), &produced);

    let bodies = split_all(&golden);
    assert_eq!(bodies.len(), responses.len());
    for (body, expected) in bodies.iter().zip(&responses) {
        assert_eq!(
            &Response::decode(body).expect("golden response decodes"),
            expected
        );
    }
}

#[test]
fn golden_inputs_are_deterministic() {
    // The vectors are only as stable as the generator: two independent calls
    // must agree bit-for-bit, or the suite would pin noise.
    for id in GOLDEN_DATASETS {
        assert_eq!(
            id.generate_bytes(GOLDEN_ELEMENTS),
            id.generate_bytes(GOLDEN_ELEMENTS),
            "{} generator is not deterministic",
            id.name()
        );
    }
}

#[test]
fn hex_helpers_round_trip() {
    let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
    let text = format!("# comment line\n{}", to_hex(&bytes));
    assert_eq!(from_hex(&text), bytes);
}
