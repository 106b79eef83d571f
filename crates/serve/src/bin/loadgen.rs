//! `primacy-loadgen` — load generator and correctness checker for
//! `primacy-serve`.
//!
//! ```text
//! primacy-loadgen --addr HOST:PORT [--connections N] [--requests N]
//!                 [--payload-kb N] [--codecs zlib,lzr,...] [--tenants N]
//!                 [--rate R (req/s per conn; 0 = closed loop)] [--burst N]
//!                 [--slow N] [--malformed N] [--seed S]
//! primacy-loadgen --smoke
//! ```
//!
//! Each connection runs on its own thread. In the default **closed loop**
//! every logical operation is a compress round-tripped through a server-side
//! decompress and compared byte-for-byte against the original. With
//! `--rate` the generator switches to an **open loop**: bursts of pipelined
//! compress requests with seeded-exponential inter-arrival gaps, verified by
//! decompressing locally. `Busy` answers are retried (and counted) — they
//! are backpressure, not failures. `--slow` and `--malformed` add
//! adversarial companions that dribble partial frames or send garbage while
//! the good traffic runs.
//!
//! Latency percentiles (p50/p99/p999 in µs), sustained MB/s, and every
//! failure counter land in `results/BENCH_serve.json` when CI sets
//! `PRIMACY_BENCH_JSON` (see `primacy_trace::json::Report`).
//!
//! `--smoke` is the CI gate: an in-process server, 100 good connections
//! plus slow and malformed companions, exiting non-zero on any dropped or
//! corrupted response or any caught panic. With `--rate` it gates the open
//! loop instead, which sends one op per request rather than two.

use primacy_codecs::CodecScratch;
use primacy_core::{parse_flag, PrimacyCompressor, PrimacyConfig};
use primacy_datagen::{DatasetId, Rng};
use primacy_serve::protocol::{Op, Request, ServeCodec, Status};
use primacy_serve::{MetricsSnapshot, ServeClient, ServeConfig, Server};
use primacy_trace::json::Report;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times a `Busy` answer is retried before the op counts as
/// dropped. Generous: backpressure on a saturated box is expected.
const BUSY_RETRY_LIMIT: u32 = 5000;

#[derive(Clone)]
struct LoadConfig {
    addr: Option<String>,
    connections: usize,
    requests: usize,
    payload_kb: usize,
    codecs: Vec<ServeCodec>,
    tenants: u64,
    rate: f64,
    burst: usize,
    slow: usize,
    malformed: usize,
    seed: u64,
    smoke: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: None,
            connections: 8,
            requests: 32,
            payload_kb: 64,
            codecs: vec![
                ServeCodec::Zlib,
                ServeCodec::Lzr,
                ServeCodec::Fpc,
                ServeCodec::Fpz,
                ServeCodec::Primacy,
            ],
            tenants: 4,
            rate: 0.0,
            burst: 4,
            slow: 0,
            malformed: 0,
            seed: 0x51_0AD,
            smoke: false,
        }
    }
}

/// Per-connection tallies, merged after the run.
#[derive(Debug, Default)]
struct ConnStats {
    ok: u64,
    busy_retries: u64,
    errors: u64,
    dropped: u64,
    corrupted: u64,
    bytes_in: u64,
    bytes_out: u64,
    latencies_us: Vec<u64>,
}

impl ConnStats {
    fn merge(&mut self, other: ConnStats) {
        self.ok += other.ok;
        self.busy_retries += other.busy_retries;
        self.errors += other.errors;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.latencies_us.extend(other.latencies_us);
    }
}

fn parse_config(args: &[String]) -> Result<LoadConfig, String> {
    let mut cfg = LoadConfig {
        smoke: args.iter().any(|a| a == "--smoke"),
        addr: parse_flag(args, "--addr"),
        ..LoadConfig::default()
    };
    if cfg.smoke {
        // The CI gate: fixed shape, in-process server (unless --addr points
        // elsewhere), small payloads so a 1-core runner finishes quickly.
        cfg.connections = 100;
        cfg.requests = 16;
        cfg.payload_kb = 2;
        cfg.codecs = vec![ServeCodec::Zlib, ServeCodec::Lzr, ServeCodec::Fpc];
        cfg.tenants = 8;
        cfg.slow = 2;
        cfg.malformed = 2;
    }
    if let Some(v) = parse_flag(args, "--connections") {
        cfg.connections = v;
    }
    if let Some(v) = parse_flag(args, "--requests") {
        cfg.requests = v;
    }
    if let Some(v) = parse_flag(args, "--payload-kb") {
        cfg.payload_kb = v;
    }
    if let Some(v) = parse_flag(args, "--tenants") {
        cfg.tenants = v;
    }
    if let Some(v) = parse_flag(args, "--rate") {
        cfg.rate = v;
    }
    if let Some(v) = parse_flag(args, "--burst") {
        cfg.burst = v;
    }
    if let Some(v) = parse_flag(args, "--slow") {
        cfg.slow = v;
    }
    if let Some(v) = parse_flag(args, "--malformed") {
        cfg.malformed = v;
    }
    if let Some(v) = parse_flag(args, "--seed") {
        cfg.seed = v;
    }
    if let Some(names) = parse_flag::<String>(args, "--codecs") {
        let mut codecs = Vec::new();
        for name in names.split(',').filter(|s| !s.is_empty()) {
            match ServeCodec::from_name(name) {
                Some(c) => codecs.push(c),
                None => return Err(format!("unknown codec '{name}'")),
            }
        }
        if codecs.is_empty() {
            return Err("--codecs selected nothing".to_string());
        }
        cfg.codecs = codecs;
    }
    cfg.connections = cfg.connections.max(1);
    cfg.requests = cfg.requests.max(1);
    cfg.payload_kb = cfg.payload_kb.max(1);
    cfg.burst = cfg.burst.max(1);
    cfg.tenants = cfg.tenants.max(1);
    Ok(cfg)
}

/// Shared corpus the connections slice payloads from: deterministic
/// `datagen` doubles, so payloads are realistic floating-point data rather
/// than uniform noise (the service's actual workload).
fn build_corpus(payload_bytes: usize) -> Vec<u8> {
    // Four payload-widths of doubles so different connections slice
    // different windows; floor of 64 elements keeps tiny payloads working.
    let elems = (payload_bytes * 4 / 8).max(64);
    DatasetId::ALL[0].generate_bytes(elems)
}

/// The window of the corpus connection `conn` uses for request `index`:
/// 8-byte aligned (the PRIMACY pipeline requires it) and different per
/// request so response mix-ups cannot cancel out.
fn payload_for(corpus: &[u8], payload_bytes: usize, conn: usize, index: usize) -> Vec<u8> {
    let len = (payload_bytes.min(corpus.len()) & !7).max(8);
    let span = corpus.len().saturating_sub(len);
    let offset = if span == 0 {
        0
    } else {
        ((conn * 977 + index * 8123) % (span / 8 + 1)) * 8
    };
    let mut p = corpus[offset..offset + len].to_vec();
    // Stamp the identity into the first element so every payload is unique.
    if p.len() >= 8 {
        let tag = ((conn as u64) << 32) ^ index as u64;
        p[..8].copy_from_slice(&tag.to_le_bytes());
    }
    p
}

/// Send one request, retrying `Busy` (bounded), and return the `Ok`
/// response payload. Latency of the successful attempt is recorded.
fn op_with_retry(
    client: &mut ServeClient,
    stats: &mut ConnStats,
    op: Op,
    codec: ServeCodec,
    request_id: u64,
    tenant: u64,
    payload: &[u8],
) -> Option<Vec<u8>> {
    for _attempt in 0..BUSY_RETRY_LIMIT {
        let request = Request {
            op,
            codec,
            request_id,
            tenant,
            payload: payload.to_vec(),
        };
        let t0 = Instant::now();
        let response = match client.request(&request) {
            Ok(r) => r,
            Err(_) => {
                stats.dropped += 1;
                return None;
            }
        };
        if response.request_id != request_id {
            stats.corrupted += 1;
            return None;
        }
        match response.status {
            Status::Ok => {
                stats.ok += 1;
                stats.bytes_in += payload.len() as u64;
                stats.bytes_out += response.payload.len() as u64;
                stats
                    .latencies_us
                    .push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
                return Some(response.payload);
            }
            Status::Busy => {
                stats.busy_retries += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            _ => {
                stats.errors += 1;
                return None;
            }
        }
    }
    stats.dropped += 1;
    None
}

/// Closed-loop worker: compress → server-side decompress → byte-compare,
/// `requests` times.
fn closed_loop_conn(addr: &str, cfg: &LoadConfig, corpus: &[u8], conn: usize) -> ConnStats {
    let mut stats = ConnStats::default();
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            stats.dropped += cfg.requests as u64;
            return stats;
        }
    };
    let _ = client.set_timeouts(Some(Duration::from_secs(120)));
    let payload_bytes = cfg.payload_kb * 1024;
    let tenant = conn as u64 % cfg.tenants + 1;
    for index in 0..cfg.requests {
        let payload = payload_for(corpus, payload_bytes, conn, index);
        let codec = cfg.codecs[(conn + index) % cfg.codecs.len()];
        let id = ((conn as u64) << 24) | (index as u64) << 1;
        let Some(compressed) = op_with_retry(
            &mut client,
            &mut stats,
            Op::Compress,
            codec,
            id,
            tenant,
            &payload,
        ) else {
            continue;
        };
        let Some(restored) = op_with_retry(
            &mut client,
            &mut stats,
            Op::Decompress,
            codec,
            id | 1,
            tenant,
            &compressed,
        ) else {
            continue;
        };
        if restored != payload {
            stats.corrupted += 1;
        }
    }
    stats
}

/// Open-loop worker: bursts of pipelined compress requests with
/// seeded-exponential inter-arrival gaps; responses matched by id and
/// verified by local decompression. Every op of a burst is timed from the
/// burst's send to the arrival of its last response, so the samples hold
/// the server's time and none of the local checks.
fn open_loop_conn(addr: &str, cfg: &LoadConfig, corpus: &[u8], conn: usize) -> ConnStats {
    let mut stats = ConnStats::default();
    let mut local = LocalDecoder::new();
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            stats.dropped += cfg.requests as u64;
            return stats;
        }
    };
    let _ = client.set_timeouts(Some(Duration::from_secs(120)));
    let mut rng = Rng::seed_from_u64(cfg.seed ^ (conn as u64).wrapping_mul(0x9E37_79B9));
    let payload_bytes = cfg.payload_kb * 1024;
    let tenant = conn as u64 % cfg.tenants + 1;
    let mut sent = 0usize;
    while sent < cfg.requests {
        let burst = cfg.burst.min(cfg.requests - sent);
        let mut requests = Vec::with_capacity(burst);
        for b in 0..burst {
            let index = sent + b;
            requests.push(Request {
                op: Op::Compress,
                codec: cfg.codecs[(conn + index) % cfg.codecs.len()],
                request_id: ((conn as u64) << 24) | index as u64,
                tenant,
                payload: payload_for(corpus, payload_bytes, conn, index),
            });
        }
        // Pipelined: write the whole burst, then collect the responses in
        // whatever order the workers finished them.
        let t0 = Instant::now();
        match client.request_burst(&requests) {
            Ok(responses) => {
                let latency_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                for request in &requests {
                    match responses
                        .iter()
                        .find(|r| r.request_id == request.request_id)
                    {
                        Some(r) if r.status == Status::Ok => {
                            stats.ok += 1;
                            stats.bytes_in += request.payload.len() as u64;
                            stats.bytes_out += r.payload.len() as u64;
                            stats.latencies_us.push(latency_us);
                            if !local.matches(request.codec, &r.payload, &request.payload) {
                                stats.corrupted += 1;
                            }
                        }
                        Some(r) if r.status == Status::Busy => stats.busy_retries += 1,
                        Some(_) => stats.errors += 1,
                        None => stats.dropped += 1,
                    }
                }
            }
            Err(_) => {
                stats.dropped += burst as u64;
                return stats;
            }
        }
        sent += burst;
        if cfg.rate > 0.0 {
            // Exponential inter-arrival around the requested per-connection
            // rate; the burst amortizes one gap over `burst` requests.
            let mean_s = burst as f64 / cfg.rate;
            let u = rng.gen_f64().max(1e-12);
            let gap = (-u.ln() * mean_s).clamp(0.0, 4.0 * mean_s);
            std::thread::sleep(Duration::from_secs_f64(gap));
        }
    }
    stats
}

/// One connection's local decoders: a scratch reused across every check,
/// so a check costs a decode and not a codec's set-up (two 8 MiB tables
/// for fpc).
struct LocalDecoder {
    scratch: CodecScratch,
    primacy: PrimacyCompressor,
}

impl LocalDecoder {
    fn new() -> Self {
        LocalDecoder {
            scratch: CodecScratch::new(),
            primacy: PrimacyCompressor::new(PrimacyConfig::default()),
        }
    }

    /// Does `compressed`, decompressed with the codec `selector` names,
    /// equal `expected`?
    fn matches(&mut self, selector: ServeCodec, compressed: &[u8], expected: &[u8]) -> bool {
        let back = match selector.kind() {
            Some(kind) => kind
                .build()
                .decompress_with(compressed, &mut self.scratch)
                .ok(),
            None => self.primacy.decompress_bytes(compressed).ok(),
        };
        back.is_some_and(|back| back == expected)
    }
}

/// Slow-loris companion: dribbles a valid frame a few bytes at a time,
/// then abandons it mid-frame. Exercises the server's read-timeout path
/// without asserting on timing.
fn slow_client(addr: &str, seed: u64) {
    use std::io::Write as _;
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return;
    };
    let mut rng = Rng::seed_from_u64(seed);
    let frame = Request {
        op: Op::Compress,
        codec: ServeCodec::Zlib,
        request_id: 0x510,
        tenant: 0,
        payload: vec![0u8; 512],
    };
    let frame = match frame.encode_frame() {
        Ok(f) => f,
        Err(_) => return,
    };
    let dribble = (frame.len() / 4).max(1);
    for chunk in frame.chunks(dribble).take(2) {
        if stream.write_all(chunk).is_err() {
            return;
        }
        std::thread::sleep(Duration::from_millis(
            50 + rng.gen_range(0..100usize) as u64,
        ));
    }
    // Abandon the rest of the frame; the server should classify this as a
    // truncated frame or a timed-out read, never a panic.
}

/// Malformed companion: sends one of several classes of garbage and reads
/// whatever comes back (typed error or clean close both count as correct).
fn malformed_client(addr: &str, seed: u64) {
    use std::io::{Read as _, Write as _};
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut rng = Rng::seed_from_u64(seed);
    let mut garbage = vec![0u8; 128];
    rng.fill_bytes(&mut garbage);
    let attack = rng.gen_range(0..3usize);
    let bytes: Vec<u8> = match attack {
        // Forged enormous length prefix.
        0 => u32::MAX.to_le_bytes().to_vec(),
        // Valid length prefix, garbage body.
        1 => {
            let mut v = (garbage.len() as u32).to_le_bytes().to_vec();
            v.extend_from_slice(&garbage);
            v
        }
        // Raw garbage, no framing at all.
        _ => garbage,
    };
    let _ = stream.write_all(&bytes);
    let mut sink = [0u8; 256];
    // Drain the typed error response (or observe the close).
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run(cfg: &LoadConfig) -> Result<(), String> {
    // In-process server when no --addr was given (the smoke gate and local
    // experimentation); otherwise target the remote instance.
    let in_process = if cfg.addr.is_none() {
        Some(
            Server::start(ServeConfig {
                queue_depth: 256,
                request_timeout: Duration::from_secs(60),
                read_timeout: Duration::from_secs(30),
                write_timeout: Duration::from_secs(30),
                ..ServeConfig::default()
            })
            .map_err(|e| format!("starting in-process server: {e}"))?,
        )
    } else {
        None
    };
    let addr: String = match (&cfg.addr, &in_process) {
        (Some(a), _) => a.clone(),
        (None, server) => server
            .as_ref()
            .map(|s| s.local_addr().to_string())
            .unwrap_or_default(),
    };

    let corpus = Arc::new(build_corpus(cfg.payload_kb * 1024));
    let started = Instant::now();
    let mut total = ConnStats::default();

    std::thread::scope(|scope| {
        let mut good = Vec::with_capacity(cfg.connections);
        for conn in 0..cfg.connections {
            let corpus = Arc::clone(&corpus);
            let addr = addr.as_str();
            good.push(scope.spawn(move || {
                if cfg.rate > 0.0 {
                    open_loop_conn(addr, cfg, &corpus, conn)
                } else {
                    closed_loop_conn(addr, cfg, &corpus, conn)
                }
            }));
        }
        let mut adversaries = Vec::with_capacity(cfg.slow + cfg.malformed);
        for i in 0..cfg.slow {
            let addr = addr.as_str();
            let seed = cfg.seed ^ (0x510 + i as u64);
            adversaries.push(scope.spawn(move || slow_client(addr, seed)));
        }
        for i in 0..cfg.malformed {
            let addr = addr.as_str();
            let seed = cfg.seed ^ (0xBAD + i as u64);
            adversaries.push(scope.spawn(move || malformed_client(addr, seed)));
        }
        for h in good {
            if let Ok(stats) = h.join() {
                total.merge(stats);
            } else {
                total.dropped += cfg.requests as u64;
            }
        }
        for h in adversaries {
            let _ = h.join();
        }
    });
    let wall = started.elapsed();

    let server_snapshot: Option<MetricsSnapshot> = in_process.map(Server::shutdown);

    total.latencies_us.sort_unstable();
    let p50 = percentile(&total.latencies_us, 0.50);
    let p99 = percentile(&total.latencies_us, 0.99);
    let p999 = percentile(&total.latencies_us, 0.999);
    let moved = (total.bytes_in + total.bytes_out) as f64;
    let mbps = if wall.as_secs_f64() > 0.0 {
        moved / 1e6 / wall.as_secs_f64()
    } else {
        0.0
    };

    println!(
        "conns {}  ops ok {}  busy-retries {}  errors {}  dropped {}  corrupted {}",
        cfg.connections, total.ok, total.busy_retries, total.errors, total.dropped, total.corrupted
    );
    println!(
        "latency p50 {p50} us  p99 {p99} us  p999 {p999} us  throughput {mbps:.2} MB/s  wall {:.2} s",
        wall.as_secs_f64()
    );
    if let Some(snap) = &server_snapshot {
        print!("{}", snap.render());
    }

    let mut report = Report::new("serve_loadgen");
    report.push("serve/connections", cfg.connections as f64);
    report.push("serve/ops_ok", total.ok as f64);
    report.push("serve/busy_retries", total.busy_retries as f64);
    report.push("serve/errors", total.errors as f64);
    report.push("serve/dropped", total.dropped as f64);
    report.push("serve/corrupted", total.corrupted as f64);
    report.push("serve/p50_us", p50 as f64);
    report.push("serve/p99_us", p99 as f64);
    report.push("serve/p999_us", p999 as f64);
    report.push("serve/throughput_mb_s", mbps);
    report.push("serve/wall_s", wall.as_secs_f64());
    if let Some(snap) = &server_snapshot {
        report.push("serve/server_busy", snap.busy as f64);
        report.push("serve/server_timeouts", snap.timeouts as f64);
        report.push("serve/server_proto_errors", snap.proto_errors as f64);
        report.push("serve/server_panics", snap.total_panics() as f64);
    }
    report.finish();

    if cfg.smoke {
        // The closed loop round-trips each request (compress, then
        // decompress); the open loop sends one compress per request.
        let ops_per_request = if cfg.rate > 0.0 { 1 } else { 2 };
        let expected_ok = (cfg.connections * cfg.requests * ops_per_request) as u64;
        let mut failures = Vec::new();
        if total.dropped != 0 {
            failures.push(format!("{} dropped responses", total.dropped));
        }
        if total.corrupted != 0 {
            failures.push(format!("{} corrupted responses", total.corrupted));
        }
        if total.errors != 0 {
            failures.push(format!("{} error responses", total.errors));
        }
        if total.ok != expected_ok {
            failures.push(format!("expected {expected_ok} ok ops, saw {}", total.ok));
        }
        if let Some(snap) = &server_snapshot {
            if snap.total_panics() != 0 {
                failures.push(format!(
                    "{} caught panics in the server",
                    snap.total_panics()
                ));
            }
        }
        if !failures.is_empty() {
            return Err(format!("smoke gate failed: {}", failures.join("; ")));
        }
        println!(
            "smoke gate passed: {expected_ok} ops across {} connections",
            cfg.connections
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: primacy-loadgen [--addr HOST:PORT] [--connections N] [--requests N] \
             [--payload-kb N] [--codecs zlib,lzr,bwt,fpc,fpz,primacy] [--tenants N] \
             [--rate R (0 = closed loop)] [--burst N] [--slow N] [--malformed N] \
             [--seed S] [--smoke]"
        );
        return ExitCode::from(2);
    }
    let cfg = match parse_config(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("primacy-loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("primacy-loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
