//! End-to-end integration of `primacy-serve` over loopback TCP (ISSUE 8
//! satellite 1).
//!
//! Four properties of the service are pinned here:
//!
//! 1. **Byte-exactness**: for every codec selector, a compress answered
//!    over the wire is byte-identical to calling the codec directly —
//!    the service adds transport, never transformation.
//! 2. **Concurrent determinism**: many clients compressing the same
//!    payload at once all receive identical bytes (per-worker scratch
//!    reuse must not leak state between requests).
//! 3. **Backpressure**: with a one-deep queue and one worker, a burst gets
//!    explicit `Busy` answers instead of unbounded buffering — and retried
//!    requests eventually succeed.
//! 4. **Graceful drain**: shutdown answers every admitted request; no
//!    response is lost.
//! 5. **Live metrics**: each server's queue-depth, queue-wait and latency
//!    histograms count exactly its own admitted jobs, readable while it
//!    runs.

use primacy_suite::codecs::CodecKind;
use primacy_suite::core::{PrimacyCompressor, PrimacyConfig};
use primacy_suite::datagen::DatasetId;
use primacy_suite::serve::client::expect_ok;
use primacy_suite::serve::protocol::{Op, Request, Response, ServeCodec, Status};
use primacy_suite::serve::{ServeClient, ServeConfig, Server};
use std::time::Duration;

/// An 8-byte-aligned floating-point payload every selector accepts.
fn payload(elements: usize) -> Vec<u8> {
    DatasetId::ALL[1].generate_bytes(elements)
}

/// Compress `data` directly (no server) with the codec behind `selector`.
fn direct_compress(selector: ServeCodec, data: &[u8]) -> Vec<u8> {
    match selector {
        ServeCodec::Zlib => CodecKind::Zlib.build().compress(data).unwrap(),
        ServeCodec::Lzr => CodecKind::Lzr.build().compress(data).unwrap(),
        ServeCodec::Bwt => CodecKind::Bwt.build().compress(data).unwrap(),
        ServeCodec::Fpc => CodecKind::Fpc.build().compress(data).unwrap(),
        ServeCodec::Fpz => CodecKind::Fpz.build().compress(data).unwrap(),
        ServeCodec::Primacy => PrimacyCompressor::new(PrimacyConfig::default())
            .compress_bytes(data)
            .unwrap(),
    }
}

#[test]
fn every_codec_roundtrips_byte_exactly_over_loopback() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let data = payload(2048);

    for (i, selector) in ServeCodec::ALL.into_iter().enumerate() {
        let id = i as u64 * 10;
        let resp = client.compress(selector, id, 1, data.clone()).unwrap();
        assert_eq!(resp.status, Status::Ok, "{selector}: {resp:?}");
        assert_eq!(resp.request_id, id);
        let wire_compressed = resp.payload;
        // The service is transport, not transformation: identical bytes to
        // the direct library call.
        assert_eq!(
            wire_compressed,
            direct_compress(selector, &data),
            "{selector}: served compression must match the direct call"
        );
        let resp = client
            .decompress(selector, id + 1, 1, wire_compressed)
            .unwrap();
        assert_eq!(resp.status, Status::Ok, "{selector}");
        assert_eq!(resp.payload, data, "{selector}: roundtrip");
    }

    let snap = server.shutdown();
    assert_eq!(snap.total_panics(), 0);
    assert_eq!(snap.proto_errors, 0);
}

#[test]
fn ping_echoes_without_touching_the_queue() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let resp = client.ping(77, 3).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.request_id, 77);
    let snap = server.shutdown();
    // Pings are not tenant work: nothing was admitted.
    assert_eq!(snap.total_requests(), 0);
}

#[test]
fn concurrent_clients_get_identical_bytes() {
    const CLIENTS: usize = 8;
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let data = payload(4096);

    let mut outputs: Vec<Vec<u8>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let data = data.clone();
            handles.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                // Interleave selectors so scratch reuse crosses codecs.
                let selector = ServeCodec::ALL[c % ServeCodec::ALL.len()];
                let warm = client
                    .compress(ServeCodec::Bwt, 1000 + c as u64, c as u64, data.clone())
                    .unwrap();
                assert_eq!(warm.status, Status::Ok);
                let resp = client
                    .compress(selector, c as u64, c as u64, data.clone())
                    .unwrap();
                assert_eq!(resp.status, Status::Ok);
                (selector, resp.payload)
            }));
        }
        outputs = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .map(|(selector, bytes)| {
                // Deterministic vs the direct call, even under concurrency.
                assert_eq!(bytes, direct_compress(selector, &data), "{selector}");
                bytes
            })
            .collect();
    });
    assert_eq!(outputs.len(), CLIENTS);
    let snap = server.shutdown();
    assert_eq!(snap.total_panics(), 0);
    assert_eq!(snap.tenants.len(), CLIENTS);
}

#[test]
fn saturated_queue_answers_busy_and_retries_succeed() {
    // One worker, one queue slot: while the worker chews a deliberately
    // slow request, at most one more can queue; the rest of a pipelined
    // burst must come back Busy immediately.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Occupier: BWT over a big incompressible buffer takes long enough on
    // any machine for the burst below to arrive while it runs.
    let slow_payload = DatasetId::ALL[0].generate_bytes(64 * 1024);
    let occupier = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).unwrap();
        client
            .compress(ServeCodec::Bwt, 9000, 1, slow_payload)
            .unwrap()
    });
    // Give the occupier a head start into the worker.
    std::thread::sleep(Duration::from_millis(50));

    let mut client = ServeClient::connect(addr).unwrap();
    let small = payload(64);
    let burst: Vec<Request> = (0..8)
        .map(|i| Request {
            op: Op::Compress,
            codec: ServeCodec::Lzr,
            request_id: 100 + i,
            tenant: 2,
            payload: small.clone(),
        })
        .collect();
    let responses = client.request_burst(&burst).unwrap();
    assert_eq!(responses.len(), burst.len());
    let busy = responses
        .iter()
        .filter(|r| r.status == Status::Busy)
        .count();
    let ok = responses.iter().filter(|r| r.status == Status::Ok).count();
    assert!(
        busy >= 1,
        "a one-deep queue behind a busy worker must shed: {responses:?}"
    );
    assert_eq!(
        busy + ok,
        burst.len(),
        "only Ok or Busy are possible here: {responses:?}"
    );

    // Busy is a retriable condition: once the occupier finishes, every
    // shed request succeeds on retry.
    assert_eq!(occupier.join().unwrap().status, Status::Ok);
    for resp in responses.iter().filter(|r| r.status == Status::Busy) {
        let mut done = false;
        for _ in 0..200 {
            let again = client
                .compress(ServeCodec::Lzr, resp.request_id, 2, small.clone())
                .unwrap();
            match again.status {
                Status::Ok => {
                    done = true;
                    break;
                }
                Status::Busy => std::thread::sleep(Duration::from_millis(5)),
                other => panic!("unexpected status {other} on retry"),
            }
        }
        assert!(done, "retry of request {} never succeeded", resp.request_id);
    }

    let snap = server.shutdown();
    assert!(snap.busy >= 1, "server must have counted the shed requests");
    assert_eq!(snap.total_panics(), 0);
}

/// Requests among `responses` the server admitted into its queue: every
/// non-ping request it did not turn away with `Busy`.
fn admitted(responses: &[Response]) -> u64 {
    responses
        .iter()
        .filter(|r| r.status != Status::Busy)
        .count() as u64
}

#[test]
fn metrics_histograms_are_live_and_per_server() {
    // Server A sheds: one worker, one queue slot, a slow occupier and a
    // pipelined burst behind it. Server B cancels: a zero queue deadline
    // makes every admitted job time out at the worker.
    let a = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let b = Server::start(ServeConfig {
        workers: 1,
        request_timeout: Duration::ZERO,
        ..ServeConfig::default()
    })
    .unwrap();

    // A connection thread records a job's queue depth after the push that
    // lets a worker answer it, so each client ends with a Ping: the thread
    // answers it only after finishing the request before it.
    let addr = a.local_addr();
    let slow_payload = DatasetId::ALL[0].generate_bytes(64 * 1024);
    let occupier = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).unwrap();
        let resp = client
            .compress(ServeCodec::Bwt, 9000, 1, slow_payload)
            .unwrap();
        assert_eq!(client.ping(9001, 1).unwrap().status, Status::Ok);
        resp
    });
    // The burst goes out once the occupier is admitted, so it finds the
    // worker busy or the queue full.
    while a.metrics().queue_depth.count == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = ServeClient::connect(addr).unwrap();
    let small = payload(64);
    let burst: Vec<Request> = (0..8)
        .map(|i| Request {
            op: Op::Compress,
            codec: ServeCodec::Lzr,
            request_id: 100 + i,
            tenant: 2,
            payload: small.clone(),
        })
        .collect();
    let mut responses = client.request_burst(&burst).unwrap();
    responses.push(occupier.join().unwrap());
    // After the occupier: a decompress that succeeds and a PRIMACY request
    // the codec rejects; both are admitted and run.
    let packed = direct_compress(ServeCodec::Zlib, &small);
    responses.push(client.decompress(ServeCodec::Zlib, 200, 2, packed).unwrap());
    responses.push(
        client
            .compress(ServeCodec::Primacy, 201, 2, vec![0u8; 7])
            .unwrap(),
    );
    assert_eq!(client.ping(202, 2).unwrap().status, Status::Ok);

    let busy = responses.len() as u64 - admitted(&responses);
    assert!(busy >= 1, "a one-deep queue behind a busy worker must shed");
    let live = a.metrics();
    assert_eq!(live.busy, busy);
    assert_eq!(live.timeouts, 0);
    assert_eq!(live.total_requests(), responses.len() as u64);
    assert_eq!(live.queue_depth.count, admitted(&responses));
    // A one-slot queue holds only the job just admitted.
    assert_eq!(live.queue_depth.sum, admitted(&responses));
    assert_eq!(live.queue_wait_us.count, admitted(&responses));
    assert_eq!(live.latency_us.count, admitted(&responses) - live.timeouts);
    let table = live.render();
    for name in ["queue_depth", "queue_wait_us", "latency_us"] {
        assert!(table.contains(name), "render() omits {name}: {table}");
    }

    let mut client = ServeClient::connect(b.local_addr()).unwrap();
    let timed_out: Vec<Response> = (0..3)
        .map(|i| {
            client
                .compress(ServeCodec::Zlib, i, 5, small.clone())
                .unwrap()
        })
        .collect();
    assert!(timed_out.iter().all(|r| r.status == Status::Timeout));
    assert_eq!(client.ping(3, 5).unwrap().status, Status::Ok);
    let other = b.metrics();
    assert_eq!(other.timeouts, 3);
    assert_eq!(other.busy, 0);
    assert_eq!(other.queue_depth.count, admitted(&timed_out));
    assert_eq!(other.queue_wait_us.count, admitted(&timed_out));
    assert_eq!(
        other.latency_us.count,
        admitted(&timed_out) - other.timeouts
    );

    // Each server kept its own counts, and the live reads missed nothing
    // the final snapshots hold.
    let a_final = a.shutdown();
    let b_final = b.shutdown();
    assert_eq!(a_final.tenants, live.tenants);
    assert_eq!(a_final.latency_us, live.latency_us);
    assert_eq!(a_final.queue_wait_us, live.queue_wait_us);
    assert_eq!(a_final.queue_depth, live.queue_depth);
    assert_eq!(b_final.queue_depth, other.queue_depth);
    assert_eq!(b_final.timeouts, other.timeouts);
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    // One worker and slow-ish jobs: shutdown lands while most of the burst
    // is still queued, and every admitted request must still be answered.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 16,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let data = DatasetId::ALL[0].generate_bytes(16 * 1024);

    let burst: Vec<Request> = (0..4)
        .map(|i| Request {
            op: Op::Compress,
            codec: ServeCodec::Bwt,
            request_id: 500 + i,
            tenant: 4,
            payload: data.clone(),
        })
        .collect();

    let mut client = ServeClient::connect(addr).unwrap();
    let reader = std::thread::spawn(move || client.request_burst(&burst));

    // Let the connection thread admit the burst, then shut down while the
    // single worker is still draining it.
    std::thread::sleep(Duration::from_millis(100));
    let snap = server.shutdown();

    let responses = reader.join().unwrap().expect("no response may be lost");
    assert_eq!(responses.len(), 4);
    for resp in &responses {
        assert_eq!(
            resp.status,
            Status::Ok,
            "admitted request {} must be drained, not dropped: {resp:?}",
            resp.request_id
        );
    }
    assert_eq!(snap.total_ok(), 4);
    assert_eq!(snap.send_failures, 0);
    assert_eq!(snap.total_panics(), 0);
}

#[test]
fn post_shutdown_connections_are_refused_or_closed() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut live = ServeClient::connect(addr).unwrap();
    assert_eq!(live.ping(1, 1).unwrap().status, Status::Ok);
    server.shutdown();
    // The listener is gone: either the connect fails outright or the
    // socket closes without a response. Never a hang, never a panic.
    if let Ok(mut client) = ServeClient::connect(addr) {
        let _ = client.set_timeouts(Some(Duration::from_secs(2)));
        assert!(client.ping(2, 1).is_err());
    }
    // The drained client's next request errors cleanly too.
    let _ = live.set_timeouts(Some(Duration::from_secs(2)));
    assert!(live.ping(3, 1).is_err());
}

/// The doc-level convenience: expect_ok unwraps Ok and types errors.
#[test]
fn expect_ok_helper_distinguishes_statuses() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let data = payload(128);
    let ok = expect_ok(
        client
            .compress(ServeCodec::Zlib, 1, 1, data.clone())
            .unwrap(),
    );
    assert!(ok.is_ok());
    // An unaligned PRIMACY payload is a typed BadRequest, surfaced by
    // expect_ok as an error mentioning the status.
    let resp = client
        .compress(ServeCodec::Primacy, 2, 1, vec![0u8; 7])
        .unwrap();
    assert_eq!(resp.status, Status::BadRequest);
    let err = expect_ok(resp).unwrap_err();
    assert!(err.to_string().contains("bad-request"), "{err}");
    server.shutdown();
}
