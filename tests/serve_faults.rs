//! Fault injection for the `primacy-serve` network boundary (ISSUE 8
//! satellite 2): a hostile peer can never panic the server or wedge it.
//!
//! Two layers, mirroring `tests/adversarial_decode.rs`:
//!
//! * a **pure-decode corpus** — a seeded xoshiro256++ stream derives
//!   hundreds of mutated frames (bit flips, truncations, zero-fill,
//!   splices) and every protocol decoder must return `Ok`/`Err` under
//!   `catch_unwind`, never panic;
//! * **live-socket assaults** — truncated frames, forged length prefixes
//!   beyond the decompression-bomb cap, raw garbage, mid-request
//!   disconnects, and slow-loris dribbles against a running server. After
//!   every assault the server must still answer a clean roundtrip, and its
//!   caught-panic counters must read zero.

use primacy_suite::datagen::{DatasetId, Rng};
use primacy_suite::serve::protocol::{
    read_frame, FrameError, Op, ProtoError, Request, Response, ServeCodec, Status, LEN_BYTES,
};
use primacy_suite::serve::{ServeClient, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Mutated inputs per decoder, matching the repo-wide adversarial floor.
const CORPUS: usize = 320;
const _: () = assert!(CORPUS >= 256, "adversarial corpus floor is 256 inputs");

/// Fixed seed so failures replay exactly.
const SEED: u64 = 0x5EED_5E12_7E00_2026;

/// FNV-1a label hash so each surface sees an independent mutation stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Same mutation kinds as `tests/adversarial_decode.rs`: bit flips,
/// truncation, zero-fill windows, spliced garbage.
fn mutate(rng: &mut Rng, stream: &[u8]) -> Vec<u8> {
    let mut bad = stream.to_vec();
    match rng.gen_range(0..4usize) {
        0 => {
            for _ in 0..rng.gen_range(1..9usize) {
                if bad.is_empty() {
                    break;
                }
                let pos = rng.gen_range(0..bad.len());
                bad[pos] ^= 1 << rng.gen_range(0..8usize);
            }
            bad
        }
        1 => {
            let keep = rng.gen_range(0..bad.len().max(1));
            bad.truncate(keep);
            bad
        }
        2 => {
            if !bad.is_empty() {
                let start = rng.gen_range(0..bad.len());
                let len = rng.gen_range(1..65usize).min(bad.len() - start);
                bad[start..start + len].fill(0);
            }
            bad
        }
        _ => {
            let at = rng.gen_range(0..bad.len().max(1)).min(bad.len());
            let mut garbage = vec![0u8; rng.gen_range(1..33usize)];
            rng.fill_bytes(&mut garbage);
            bad.splice(at..at, garbage);
            bad
        }
    }
}

/// Run `decode` over `CORPUS` mutations of `stream`, panicking with replay
/// coordinates if any decode panics.
fn assault(label: &str, stream: &[u8], decode: impl Fn(&[u8])) {
    let mut rng = Rng::seed_from_u64(SEED ^ fnv1a(label));
    for case in 0..CORPUS {
        let bad = mutate(&mut rng, stream);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&bad)));
        assert!(
            outcome.is_ok(),
            "{label}: decode panicked on mutation {case} (seed {SEED:#018x}, \
             input {} bytes)",
            bad.len(),
        );
    }
}

fn sample_request() -> Request {
    Request {
        op: Op::Compress,
        codec: ServeCodec::Fpz,
        request_id: 0xFEED_BEEF,
        tenant: 11,
        payload: DatasetId::ALL[2].generate_bytes(256),
    }
}

#[test]
fn request_decoder_survives_the_corpus() {
    let frame = sample_request().encode_frame().unwrap();
    let body = frame[LEN_BYTES..].to_vec();
    assault("serve-request", &body, |bytes| {
        let _ = Request::decode(bytes);
    });
}

#[test]
fn response_decoder_survives_the_corpus() {
    let resp = Response {
        status: Status::Ok,
        op_echo: Op::Compress.to_byte(),
        codec_echo: ServeCodec::Fpz.to_byte(),
        request_id: 7,
        tenant: 11,
        payload: DatasetId::ALL[2].generate_bytes(256),
    };
    let frame = resp.encode_frame().unwrap();
    let body = frame[LEN_BYTES..].to_vec();
    assault("serve-response", &body, |bytes| {
        let _ = Response::decode(bytes);
    });
}

#[test]
fn framing_layer_survives_the_corpus() {
    let frame = sample_request().encode_frame().unwrap();
    assault("serve-read-frame", &frame, |bytes| {
        let mut cursor = bytes;
        // Drain every frame the mutated stream appears to contain.
        while let Ok(Some(_)) = read_frame(&mut cursor, 4096) {}
    });
}

#[test]
fn forged_length_prefix_is_rejected_before_allocation() {
    // A 4 GiB claim against a 4 KiB cap must fail by inspection of the
    // prefix alone — this is the decompression-bomb stance at the edge.
    let mut forged = u32::MAX.to_le_bytes().to_vec();
    forged.extend_from_slice(&[0u8; 16]);
    let mut cursor = &forged[..];
    let err = read_frame(&mut cursor, 4096).unwrap_err();
    assert!(
        matches!(err, FrameError::Proto(ProtoError::FrameTooLarge { claimed, cap })
            if claimed == u64::from(u32::MAX) && cap == 4096)
    );
    // Only the prefix was read.
    assert_eq!(cursor.len(), 16);
}

// ---------------------------------------------------------------------------
// Live-socket assaults
// ---------------------------------------------------------------------------

/// A raw attacker connection (no client-side protocol).
fn raw_conn(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Read until the peer closes or times out; returns everything received.
fn drain(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    out
}

/// The canary: a clean roundtrip must still succeed after an assault.
fn assert_healthy(server: &Server) {
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client.set_timeouts(Some(Duration::from_secs(10))).unwrap();
    let data = DatasetId::ALL[3].generate_bytes(128);
    let resp = client
        .compress(ServeCodec::Zlib, 1, 1, data.clone())
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    let resp = client
        .decompress(ServeCodec::Zlib, 2, 1, resp.payload)
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.payload, data);
}

/// Decode all complete response frames in `bytes`; every one must parse —
/// whatever the server says back to an attacker is itself well-formed.
fn decode_responses(bytes: &[u8]) -> Vec<Response> {
    let mut rest = bytes;
    let mut out = Vec::new();
    while let Ok(Some(body)) = read_frame(&mut rest, usize::MAX / 2) {
        out.push(Response::decode(&body).expect("server sent a malformed response"));
    }
    out
}

#[test]
fn live_server_survives_socket_assaults() {
    let server = Server::start(ServeConfig {
        max_frame_bytes: 64 * 1024,
        ..ServeConfig::default()
    })
    .unwrap();

    // 1. Forged length prefix far beyond the cap: typed TooLarge, close.
    let mut conn = raw_conn(&server);
    conn.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let answer = drain(&mut conn);
    let responses = decode_responses(&answer);
    assert_eq!(responses.len(), 1, "one typed error expected: {answer:?}");
    assert_eq!(responses[0].status, Status::TooLarge);
    assert_healthy(&server);

    // 2. Truncated frame: claim 1000 bytes, send 10, disconnect.
    let mut conn = raw_conn(&server);
    conn.write_all(&1000u32.to_le_bytes()).unwrap();
    conn.write_all(&[0u8; 10]).unwrap();
    drop(conn);
    assert_healthy(&server);

    // 3. Garbage with a plausible prefix: typed BadRequest, close.
    let mut conn = raw_conn(&server);
    let mut rng = Rng::seed_from_u64(SEED);
    let mut garbage = vec![0u8; 64];
    rng.fill_bytes(&mut garbage);
    let mut framed = (garbage.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&garbage);
    conn.write_all(&framed).unwrap();
    let answer = drain(&mut conn);
    let responses = decode_responses(&answer);
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].status, Status::BadRequest);
    assert_healthy(&server);

    // 4. Mid-request disconnect: half a *valid* frame, then vanish.
    let frame = sample_request().encode_frame().unwrap();
    let mut conn = raw_conn(&server);
    conn.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(conn);
    assert_healthy(&server);

    // 5. A pipelined valid request followed by garbage: the request is
    // answered before the garbage kills the connection.
    let mut conn = raw_conn(&server);
    let mut bytes = sample_request().encode_frame().unwrap();
    bytes.extend_from_slice(&[0xFF; 32]);
    conn.write_all(&bytes).unwrap();
    let answer = drain(&mut conn);
    let responses = decode_responses(&answer);
    assert!(
        responses.iter().any(|r| r.status == Status::Ok),
        "the valid request must be answered: {responses:?}"
    );
    assert_healthy(&server);

    let snap = server.shutdown();
    assert_eq!(
        snap.total_panics(),
        0,
        "assaults must never panic: {snap:?}"
    );
    assert!(snap.proto_errors >= 4, "assaults are counted: {snap:?}");
}

#[test]
fn live_server_survives_a_seeded_mutation_storm() {
    // Dozens of mutated frames straight onto live sockets: every
    // connection ends in a typed error or a clean close; the canary stays
    // healthy throughout and no panic is ever caught.
    const STORM: usize = 64;
    let server = Server::start(ServeConfig {
        max_frame_bytes: 64 * 1024,
        ..ServeConfig::default()
    })
    .unwrap();
    let valid = sample_request().encode_frame().unwrap();
    let mut rng = Rng::seed_from_u64(SEED ^ fnv1a("socket-storm"));
    for case in 0..STORM {
        let bad = mutate(&mut rng, &valid);
        let mut conn = raw_conn(&server);
        if conn.write_all(&bad).is_err() {
            continue; // server already closed on us — acceptable
        }
        // Half-close so a mutation claiming more bytes than it sent reads
        // as immediate EOF (Truncated) instead of waiting out the server's
        // read timeout.
        let _ = conn.shutdown(std::net::Shutdown::Write);
        let answer = drain(&mut conn);
        // Whatever came back must itself be parseable protocol.
        let _ = decode_responses(&answer);
        if case % 16 == 0 {
            assert_healthy(&server);
        }
    }
    assert_healthy(&server);
    let snap = server.shutdown();
    assert_eq!(snap.total_panics(), 0, "storm must never panic: {snap:?}");
}

#[test]
fn slow_loris_is_disconnected_by_the_read_timeout() {
    // A dedicated short-timeout server: the client dribbles below the
    // timeout rate and must be cut, while a fast client stays served.
    let server = Server::start(ServeConfig {
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .unwrap();

    let mut conn = raw_conn(&server);
    let frame = sample_request().encode_frame().unwrap();
    // Two dribbles, then silence longer than the read timeout.
    conn.write_all(&frame[..2]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    conn.write_all(&frame[2..4]).unwrap();

    // The server must close the connection rather than hold the thread:
    // our read observes EOF (or a reset) within the generous client-side
    // timeout, never a hang.
    let answer = drain(&mut conn);
    assert!(
        decode_responses(&answer)
            .iter()
            .all(|r| r.status != Status::Ok),
        "a dribbled partial frame cannot succeed"
    );
    assert_healthy(&server);

    let snap = server.shutdown();
    assert_eq!(snap.total_panics(), 0);
    assert!(
        snap.slow_closes >= 1,
        "the slow-loris guard must have fired: {snap:?}"
    );
}

#[test]
fn decompression_bomb_result_is_capped() {
    // A small compressed frame that inflates beyond the response cap must
    // come back TooLarge, not as an unbounded allocation. 64 KiB of zeros
    // compresses to well under 1 KiB; cap responses below 64 KiB.
    let server = Server::start(ServeConfig {
        max_frame_bytes: 16 * 1024,
        ..ServeConfig::default()
    })
    .unwrap();
    let zeros = vec![0u8; 200 * 1024];
    let compressed = {
        use primacy_suite::codecs::CodecKind;
        CodecKind::Zlib.build().compress(&zeros).unwrap()
    };
    assert!(
        compressed.len() < 16 * 1024,
        "premise: bomb fits the request cap"
    );
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let resp = client
        .decompress(ServeCodec::Zlib, 1, 1, compressed)
        .unwrap();
    assert_eq!(
        resp.status,
        Status::TooLarge,
        "a result beyond the response cap must be refused: {resp:?}"
    );
    assert_healthy(&server);
    let snap = server.shutdown();
    assert_eq!(snap.total_panics(), 0);
}

#[test]
fn mutations_are_deterministic() {
    let stream: Vec<u8> = (0..=255u8).collect();
    let mut a = Rng::seed_from_u64(SEED);
    let mut b = Rng::seed_from_u64(SEED);
    for _ in 0..32 {
        assert_eq!(mutate(&mut a, &stream), mutate(&mut b, &stream));
    }
}
