//! The multi-tenant compression server.
//!
//! Thread architecture (DESIGN.md "Serving"):
//!
//! * one **acceptor** thread owns the listener and spawns a connection
//!   thread per client;
//! * one **connection** thread per client reads frames, answers protocol
//!   errors and `Ping` inline, and admits real work into the bounded job
//!   queue — when the queue is full the client gets an immediate
//!   [`Status::Busy`] instead of unbounded buffering;
//! * a fixed pool of **worker** threads, each owning one
//!   [`CodecScratch`] (so steady-state deflate encode stays
//!   allocation-free, the property PR 5 built) plus one instance of every
//!   codec, pops jobs, enforces the per-request queue deadline, runs the
//!   codec under `catch_unwind`, and writes the response back through the
//!   connection's serialized write handle.
//!
//! Graceful shutdown ([`Server::shutdown`]) drains: the queue closes (new
//! work is answered [`Status::ShuttingDown`]), workers finish every job
//! already admitted — no admitted request ever loses its response — and
//! only then are lingering connections cut.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use primacy_codecs::{Codec, CodecKind, CodecScratch};
use primacy_core::config::resolve_threads;
use primacy_core::{PrimacyCompressor, PrimacyConfig, PrimacyError};

use crate::lock_recover;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::protocol::{
    self, max_response_body, FrameError, Op, ProtoError, Request, Response, Status,
    DEFAULT_MAX_FRAME,
};
use crate::queue::{Bounded, PushError};

/// Server configuration. `Default` is tuned for tests and small
/// deployments; the `primacy-serve` binary exposes every field.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads; `0` auto-detects via
    /// [`primacy_core::config::resolve_threads`] (1-core machines get 1).
    pub workers: usize,
    /// Bounded job-queue depth; pushes beyond it answer [`Status::Busy`].
    pub queue_depth: usize,
    /// Queue-wait deadline: a request still queued after this long is
    /// cancelled with [`Status::Timeout`] instead of burning a worker.
    pub request_timeout: Duration,
    /// Per-read socket timeout — the slow-loris guard. A client that
    /// dribbles a frame slower than this is disconnected.
    pub read_timeout: Duration,
    /// Per-write socket timeout — a stalled reader cannot wedge a worker.
    pub write_timeout: Duration,
    /// Cap on a request frame body (header + payload).
    pub max_frame_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            request_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_frame_bytes: DEFAULT_MAX_FRAME,
        }
    }
}

/// Write half of one client connection, shared between the connection
/// thread (inline error/ping replies) and whichever worker answers each
/// queued request. The mutex serializes whole frames so pipelined
/// responses never interleave.
struct Conn {
    id: u64,
    writer: Mutex<TcpStream>,
}

impl Conn {
    /// Encode and write one response frame. Returns whether the write
    /// succeeded; failures are tallied, not propagated — the client is
    /// simply gone.
    fn send(&self, metrics: &Metrics, resp: &Response) -> bool {
        // The writer guard is a temporary of this statement, so it is
        // released before the failure is recorded.
        let sent = match resp.encode_frame() {
            Ok(frame) => lock_recover(&self.writer).write_all(&frame).is_ok(),
            Err(_) => false,
        };
        if !sent {
            metrics.record(|m| m.send_failures += 1);
        }
        sent
    }
}

/// One admitted unit of work.
struct Job {
    request: Request,
    conn: Arc<Conn>,
    enqueued: Instant,
    deadline: Instant,
}

struct Shared {
    config: ServeConfig,
    queue: Bounded<Job>,
    metrics: Metrics,
    draining: AtomicBool,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_conn_id: AtomicU64,
}

/// A running compression server. Construct with [`Server::start`]; stop
/// with [`Server::shutdown`] (dropping the handle also shuts down).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind and start accepting. Worker threads and the acceptor are
    /// running when this returns.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let worker_count = resolve_threads(config.workers);
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_depth),
            metrics: Metrics::new(),
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(1),
            config,
        });

        let mut workers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }

        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conn_handles = Arc::clone(&conn_handles);
            std::thread::spawn(move || acceptor_loop(&listener, &shared, &conn_handles))
        };

        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
            conn_handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time copy of the server's counters and histograms, readable
    /// while it runs. [`Metrics`] is the server's only registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Graceful shutdown: stop accepting, close the queue, let workers
    /// drain every admitted job (every admitted request gets its
    /// response), then cut remaining connections and join every thread.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> MetricsSnapshot {
        // Idempotent: a second call (e.g. Drop after shutdown) finds the
        // acceptor handle already taken and every collection empty.
        self.shared.draining.store(true, Ordering::Release);
        self.shared.queue.close();
        if let Some(acceptor) = self.acceptor.take() {
            // Unblock the blocking accept with a throwaway connection; the
            // acceptor observes `draining` and exits.
            let _ = TcpStream::connect(self.local_addr);
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Every queued job is now answered. Cut connections still open
        // (idle keep-alives, mid-read clients) and join their threads.
        {
            let conns = lock_recover(&self.shared.conns);
            for conn in conns.values() {
                let writer = lock_recover(&conn.writer);
                let _ = writer.shutdown(Shutdown::Both);
            }
        }
        let handles: Vec<JoinHandle<()>> = lock_recover(&self.conn_handles).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.shared.metrics.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_impl();
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conn_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::Acquire) {
            // The wakeup connection from shutdown (or a late client); the
            // dropped stream closes it immediately.
            return;
        }
        shared.metrics.record(|m| m.accepted_conns += 1);
        let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        let _ = stream.set_nodelay(true);

        // ORDERING: a ticket counter handing out unique connection ids; no
        // data is published through it.
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let writer = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        };
        let conn = Arc::new(Conn {
            id: conn_id,
            writer: Mutex::new(writer),
        });
        lock_recover(&shared.conns).insert(conn_id, Arc::clone(&conn));

        let handle = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || connection_entry(&shared, stream, &conn))
        };
        let mut handles = lock_recover(conn_handles);
        // Reap finished connection threads so a long-lived server does not
        // accumulate one stale handle per past connection.
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
    }
}

/// Connection-thread entry point: runs the read loop under `catch_unwind`
/// so a bug in request handling can never take the process down, then
/// unregisters the connection.
fn connection_entry(shared: &Arc<Shared>, stream: TcpStream, conn: &Arc<Conn>) {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        handle_connection(shared, stream, conn);
    }));
    lock_recover(&shared.conns).remove(&conn.id);
    shared.metrics.record(|m| {
        m.conn_panics += u64::from(outcome.is_err());
        m.closed_conns += 1;
    });
}

/// A response frame carrying an error status and a short diagnostic.
fn error_response(status: Status, req: Option<&Request>, detail: &str) -> Response {
    Response {
        status,
        op_echo: req.map(|r| r.op.to_byte()).unwrap_or(0),
        codec_echo: req.map(|r| r.codec.to_byte()).unwrap_or(0),
        request_id: req.map(|r| r.request_id).unwrap_or(0),
        tenant: req.map(|r| r.tenant).unwrap_or(0),
        payload: detail.as_bytes().to_vec(),
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, conn: &Arc<Conn>) {
    loop {
        match protocol::read_frame(&mut stream, shared.config.max_frame_bytes) {
            Ok(None) => return, // clean close at a frame boundary
            Ok(Some(body)) => match Request::decode(&body) {
                Ok(request) => {
                    if !dispatch(shared, conn, request) {
                        return;
                    }
                }
                Err(e) => {
                    // The frame was complete, so framing is intact — answer
                    // the typed error, then close: a peer that cannot form
                    // a header will not form the next frame either.
                    shared.metrics.record(|m| m.proto_errors += 1);
                    conn.send(
                        &shared.metrics,
                        &error_response(Status::BadRequest, None, &e.to_string()),
                    );
                    return;
                }
            },
            Err(FrameError::Proto(e)) => {
                // Framing itself is broken (forged length, truncation):
                // answer once, then close — nothing after this byte
                // position can be trusted.
                shared.metrics.record(|m| m.proto_errors += 1);
                let status = match e {
                    ProtoError::FrameTooLarge { .. } => Status::TooLarge,
                    _ => Status::BadRequest,
                };
                conn.send(
                    &shared.metrics,
                    &error_response(status, None, &e.to_string()),
                );
                return;
            }
            Err(FrameError::Io(e)) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    // Read timeout: the slow-loris guard fired.
                    shared.metrics.record(|m| m.slow_closes += 1);
                }
                return;
            }
        }
    }
}

/// Route one decoded request. Returns whether the connection should stay
/// open.
fn dispatch(shared: &Arc<Shared>, conn: &Arc<Conn>, request: Request) -> bool {
    if request.op == Op::Ping {
        // Health checks bypass the queue: answer inline, echoing the
        // payload so clients can verify liveness end to end.
        let resp = Response {
            status: Status::Ok,
            op_echo: request.op.to_byte(),
            codec_echo: request.codec.to_byte(),
            request_id: request.request_id,
            tenant: request.tenant,
            payload: request.payload,
        };
        return conn.send(&shared.metrics, &resp);
    }

    // Recorded before the push makes the job visible to a worker, so no
    // snapshot shows an outcome without its request.
    let (tenant, bytes_in) = (request.tenant, request.payload.len() as u64);
    shared
        .metrics
        .record(|m| m.tenant_request(tenant, bytes_in));

    let now = Instant::now();
    let deadline = now
        .checked_add(shared.config.request_timeout)
        .unwrap_or(now);
    let job = Job {
        request,
        conn: Arc::clone(conn),
        enqueued: now,
        deadline,
    };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared
                .metrics
                .record(|m| m.queue_depth.observe(depth as u64));
            true
        }
        Err(PushError::Full(job)) => {
            shared.metrics.record(|m| {
                m.busy += 1;
                m.tenant_done(tenant, false, 0);
            });
            job.conn.send(
                &shared.metrics,
                &error_response(Status::Busy, Some(&job.request), "queue full"),
            )
        }
        Err(PushError::Closed(job)) => {
            shared.metrics.record(|m| {
                m.shedding += 1;
                m.tenant_done(tenant, false, 0);
            });
            job.conn.send(
                &shared.metrics,
                &error_response(Status::ShuttingDown, Some(&job.request), "draining"),
            )
        }
    }
}

/// One instance of every codec, each next to the kind it was built from;
/// a worker builds the table once and picks from it by
/// [`ServeCodec::kind`](crate::ServeCodec::kind).
fn codec_table() -> Vec<(CodecKind, Box<dyn Codec>)> {
    CodecKind::ALL.iter().map(|&k| (k, k.build())).collect()
}

fn map_primacy_error(e: &PrimacyError) -> Status {
    match e {
        PrimacyError::InvalidInput(_) | PrimacyError::InvalidConfig(_) => Status::BadRequest,
        _ => Status::CodecFailed,
    }
}

/// Run one request's codec work. Pure with respect to the server: all
/// I/O and accounting stay with the caller.
fn execute(
    request: &Request,
    scratch: &mut CodecScratch,
    codecs: &[(CodecKind, Box<dyn Codec>)],
    compressor: &PrimacyCompressor,
) -> Result<Vec<u8>, (Status, String)> {
    match (request.op, request.codec.kind()) {
        (Op::Ping, _) => Ok(request.payload.clone()),
        (Op::Compress, None) => compressor
            .compress_bytes(&request.payload)
            .map_err(|e| (map_primacy_error(&e), e.to_string())),
        (Op::Decompress, None) => compressor
            .decompress_bytes(&request.payload)
            .map_err(|e| (map_primacy_error(&e), e.to_string())),
        (op, Some(kind)) => {
            let Some((_, codec)) = codecs.iter().find(|(k, _)| *k == kind) else {
                return Err((Status::Internal, "codec table hole".to_string()));
            };
            let result = match op {
                Op::Compress => codec.compress_with(&request.payload, scratch),
                _ => codec.decompress_with(&request.payload, scratch),
            };
            result.map_err(|e| (Status::CodecFailed, e.to_string()))
        }
    }
}

/// Whole microseconds in `d`, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn worker_loop(shared: &Arc<Shared>) {
    // One scratch per worker — the allocation-reuse contract from PR 5 —
    // plus one instance of every codec, built once.
    let mut scratch = CodecScratch::new();
    let codecs = codec_table();
    let compressor = PrimacyCompressor::new(PrimacyConfig::default());
    let response_cap = max_response_body(shared.config.max_frame_bytes);

    while let Some(job) = shared.queue.pop() {
        let waited_us = micros(job.enqueued.elapsed());
        let tenant = job.request.tenant;
        if Instant::now() >= job.deadline {
            // Cancelled while queued: answer without doing the work.
            shared.metrics.record(|m| {
                m.queue_wait_us.observe(waited_us);
                m.timeouts += 1;
                m.tenant_done(tenant, false, 0);
            });
            job.conn.send(
                &shared.metrics,
                &error_response(Status::Timeout, Some(&job.request), "queue deadline"),
            );
            continue;
        }

        let started = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            execute(&job.request, &mut scratch, &codecs, &compressor)
        }));
        let panicked = outcome.is_err();
        if panicked {
            // Scratch state after an unwind is suspect; start fresh.
            scratch = CodecScratch::new();
        }
        let latency_us = micros(started.elapsed());

        let response = match outcome {
            Err(_) => error_response(Status::Internal, Some(&job.request), "worker panicked"),
            Ok(Ok(bytes)) if bytes.len() > response_cap => error_response(
                Status::TooLarge,
                Some(&job.request),
                "result exceeds the response cap",
            ),
            Ok(Ok(bytes)) => Response {
                status: Status::Ok,
                op_echo: job.request.op.to_byte(),
                codec_echo: job.request.codec.to_byte(),
                request_id: job.request.request_id,
                tenant,
                payload: bytes,
            },
            Ok(Err((status, detail))) => error_response(status, Some(&job.request), &detail),
        };
        let ok = response.status == Status::Ok;
        let bytes_out = if ok { response.payload.len() as u64 } else { 0 };
        shared.metrics.record(|m| {
            m.queue_wait_us.observe(waited_us);
            m.latency_us.observe(latency_us);
            m.worker_panics += u64::from(panicked);
            m.tenant_done(tenant, ok, bytes_out);
        });
        job.conn.send(&shared.metrics, &response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ServeCodec;

    #[test]
    fn config_default_is_sane() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.workers, 0, "default auto-detects");
        assert!(cfg.queue_depth >= 1);
        assert_eq!(cfg.max_frame_bytes, DEFAULT_MAX_FRAME);
    }

    #[test]
    fn error_response_echoes_request_fields() {
        let req = Request {
            op: Op::Compress,
            codec: ServeCodec::Fpz,
            request_id: 123,
            tenant: 9,
            payload: vec![1, 2, 3],
        };
        let resp = error_response(Status::Busy, Some(&req), "queue full");
        assert_eq!(resp.status, Status::Busy);
        assert_eq!(resp.request_id, 123);
        assert_eq!(resp.tenant, 9);
        assert_eq!(resp.op_echo, Op::Compress.to_byte());
        assert_eq!(resp.payload, b"queue full");
        // Without a parsed request everything echoes as zero.
        let resp = error_response(Status::BadRequest, None, "bad magic");
        assert_eq!(resp.request_id, 0);
        assert_eq!(resp.tenant, 0);
    }

    #[test]
    fn execute_covers_every_selector_roundtrip() {
        let mut scratch = CodecScratch::new();
        let codecs = codec_table();
        let compressor = PrimacyCompressor::new(PrimacyConfig::default());
        // 8-byte aligned payload so Primacy accepts it too.
        let payload: Vec<u8> = (0..256u32).flat_map(|i| (i as f64).to_le_bytes()).collect();
        for selector in ServeCodec::ALL {
            let compress = Request {
                op: Op::Compress,
                codec: selector,
                request_id: 1,
                tenant: 1,
                payload: payload.clone(),
            };
            let compressed =
                execute(&compress, &mut scratch, &codecs, &compressor).expect("compress");
            let decompress = Request {
                op: Op::Decompress,
                codec: selector,
                request_id: 2,
                tenant: 1,
                payload: compressed,
            };
            let back =
                execute(&decompress, &mut scratch, &codecs, &compressor).expect("decompress");
            assert_eq!(back, payload, "selector {selector}");
        }
    }

    #[test]
    fn execute_maps_errors_to_statuses() {
        let mut scratch = CodecScratch::new();
        let codecs = codec_table();
        let compressor = PrimacyCompressor::new(PrimacyConfig::default());
        // Unaligned payload into the PRIMACY pipeline: a client error.
        let req = Request {
            op: Op::Compress,
            codec: ServeCodec::Primacy,
            request_id: 1,
            tenant: 1,
            payload: vec![0u8; 13],
        };
        let (status, _) = execute(&req, &mut scratch, &codecs, &compressor).unwrap_err();
        assert_eq!(status, Status::BadRequest);
        // Garbage into a decompressor: a codec failure.
        let req = Request {
            op: Op::Decompress,
            codec: ServeCodec::Zlib,
            request_id: 1,
            tenant: 1,
            payload: vec![0xAA; 64],
        };
        let (status, _) = execute(&req, &mut scratch, &codecs, &compressor).unwrap_err();
        assert_eq!(status, Status::CodecFailed);
    }
}
