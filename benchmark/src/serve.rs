//! Load against `primacy-serve`, measured through `ServeClient` and
//! `Server::metrics()`.
//!
//! The op mix is seeded: compress and decompress with zlib, lzr, fpc and
//! primacy on 2 KiB payloads cut from the workload's data (see [`OpMix`]). Every expected
//! response is computed in set-up; responses are collected during a slice
//! and compared only after it ends, so checking costs no measured time.
//! `Busy` counts as refused and is never retried inside a slice.

use crate::host;
use crate::trace::Tracer;
use crate::workload::mix;
use primacy_codecs::{Codec, CodecKind, CodecScratch};
use primacy_core::{PrimacyCompressor, PrimacyConfig};
use primacy_datagen::Rng;
use primacy_serve::{Op, Request, Response, ServeClient, ServeCodec, ServeConfig, Server, Status};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const PAYLOAD_BYTES: usize = 2048;
const POOL: usize = 256;
pub const CODECS: [ServeCodec; 4] = [
    ServeCodec::Zlib,
    ServeCodec::Lzr,
    ServeCodec::Fpc,
    ServeCodec::Primacy,
];
/// Op kinds: `k < 4` compresses with `CODECS[k]`, `k >= 4` decompresses
/// with `CODECS[k - 4]`.
pub const KINDS: usize = 8;

pub fn kind_name(kind: usize) -> (&'static str, &'static str) {
    let dir = if kind < 4 { "compress" } else { "decompress" };
    (CODECS[kind % 4].name(), dir)
}

/// One block of the op mix: every compress kind twice, every decompress
/// kind once. The kinds' latencies differ by up to 50×, so with equal
/// shares the median op would sit on the edge between two kinds' latency
/// modes; with these it sits inside the zlib compress mode.
const MIX: [usize; 12] = [0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7];

/// Seeded `(kind, payload)` draws: [`MIX`] shuffled anew for each block,
/// so every slice has the same composition whatever the seed.
struct OpMix {
    rng: Rng,
    block: [usize; MIX.len()],
    at: usize,
}

impl OpMix {
    fn new(stream: u64) -> OpMix {
        OpMix {
            rng: Rng::seed_from_u64(stream),
            block: MIX,
            at: MIX.len(),
        }
    }

    fn next(&mut self) -> (usize, usize) {
        if self.at == MIX.len() {
            self.block = MIX;
            self.rng.shuffle(&mut self.block);
            self.at = 0;
        }
        self.at += 1;
        (self.block[self.at - 1], self.rng.gen_range(0..POOL))
    }
}

/// Outcome counts of one batch of operations.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    /// Answered `Busy`.
    pub refused: u64,
    /// Any other non-`Ok` status, a missing response, or a transport error.
    pub errors: u64,
    /// `Ok`, but not the expected bytes.
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.refused += o.refused;
        self.errors += o.errors;
        self.wrong += o.wrong;
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.wrong
    }
}

/// Payloads and the expected answer to every (kind, payload) pair.
struct Pool {
    plain: Vec<Vec<u8>>,
    /// `packed[c][i]`: payload `i` compressed with `CODECS[c]`.
    packed: [Vec<Vec<u8>>; 4],
}

/// The codec work behind one op kind, called directly — what the server's
/// worker runs for the same request.
pub struct Direct {
    codecs: Vec<Box<dyn Codec>>,
    primacy: PrimacyCompressor,
    scratch: CodecScratch,
}

impl Direct {
    pub fn new() -> Direct {
        Direct {
            codecs: [CodecKind::Zlib, CodecKind::Lzr, CodecKind::Fpc]
                .iter()
                .map(|k| k.build())
                .collect(),
            primacy: PrimacyCompressor::new(PrimacyConfig::default()),
            scratch: CodecScratch::new(),
        }
    }

    pub fn run(&mut self, kind: usize, input: &[u8]) -> Result<Vec<u8>, String> {
        let c = kind % 4;
        let s = &mut self.scratch;
        match (kind < 4, CODECS[c]) {
            (true, ServeCodec::Primacy) => self
                .primacy
                .compress_bytes(input)
                .map_err(|e| e.to_string()),
            (false, ServeCodec::Primacy) => self
                .primacy
                .decompress_bytes(input)
                .map_err(|e| e.to_string()),
            (true, _) => self.codecs[c]
                .compress_with(input, s)
                .map_err(|e| e.to_string()),
            (false, _) => self.codecs[c]
                .decompress_with(input, s)
                .map_err(|e| e.to_string()),
        }
    }
}

impl Pool {
    /// Payloads cut at seeded offsets from `data`, which holds arrays of
    /// the byte lengths in `parts`, one after another. Payload `i` comes
    /// from array `i % parts.len()`, so every seed's pool holds each array
    /// (each dataset) in the same share, and so costs the codecs about the
    /// same.
    fn new(data: &[u8], parts: &[usize], seed: u64) -> Result<Pool, String> {
        let mut rng = Rng::seed_from_u64(mix(seed, 0x706f_6f6c));
        let mut bounds = Vec::with_capacity(parts.len());
        let mut at = 0;
        for &len in parts {
            if len < PAYLOAD_BYTES || at + len > data.len() {
                return Err(format!("an array of {len} bytes cannot give a payload"));
            }
            bounds.push((at, (len - PAYLOAD_BYTES) / 8 + 1));
            at += len;
        }
        let plain: Vec<Vec<u8>> = (0..POOL)
            .map(|i| {
                let (start, slots) = bounds[i % bounds.len()];
                let at = start + rng.gen_range(0..slots) * 8;
                data[at..at + PAYLOAD_BYTES].to_vec()
            })
            .collect();
        let mut direct = Direct::new();
        let mut packed: [Vec<Vec<u8>>; 4] = Default::default();
        for (c, out) in packed.iter_mut().enumerate() {
            for p in &plain {
                out.push(direct.run(c, p)?);
            }
        }
        Ok(Pool { plain, packed })
    }

    /// Request body and expected response body of `kind` on payload `i`.
    fn io(&self, kind: usize, i: usize) -> (&[u8], &[u8]) {
        let (plain, packed) = (&self.plain[i], &self.packed[kind % 4][i]);
        if kind < 4 {
            (plain, packed)
        } else {
            (packed, plain)
        }
    }

    fn request(&self, kind: usize, i: usize, request_id: u64) -> Request {
        Request {
            op: if kind < 4 {
                Op::Compress
            } else {
                Op::Decompress
            },
            codec: CODECS[kind % 4],
            request_id,
            tenant: 1 + kind as u64 % 4,
            payload: self.io(kind, i).0.to_vec(),
        }
    }

    fn check(&self, kind: usize, i: usize, resp: &Response, tally: &mut Tally) {
        match resp.status {
            Status::Ok if resp.payload == self.io(kind, i).1 => tally.ok += 1,
            Status::Ok => tally.wrong += 1,
            Status::Busy => tally.refused += 1,
            _ => tally.errors += 1,
        }
    }
}

/// One request sent: its id, kind and payload index.
type Asked = (u64, usize, usize);

/// Compare a batch of responses with what was asked, matching by id.
fn verify(pool: &Pool, asked: &[Asked], responses: Vec<Response>, tally: &mut Tally) {
    tally.attempted += asked.len() as u64;
    let mut by_id: HashMap<u64, Response> =
        responses.into_iter().map(|r| (r.request_id, r)).collect();
    for &(id, kind, i) in asked {
        match by_id.remove(&id) {
            Some(resp) => pool.check(kind, i, &resp, tally),
            None => tally.errors += 1,
        }
    }
}

pub struct Rig {
    lanes: Vec<Lane>,
    /// The connection the unloaded round trips use; the lanes own the rest.
    probe: ServeClient,
    server: Server,
    pool: Arc<Pool>,
    seed: u64,
}

/// Open-loop samples of one slice.
#[derive(Default)]
pub struct OpenOut {
    /// Completion minus due time, ms.
    pub latency_ms: Vec<f64>,
    /// The op kind of each `latency_ms` sample.
    pub kinds: Vec<usize>,
    /// Send minus due time, ms: how late the generator ran.
    pub late_ms: Vec<f64>,
    /// Generator-thread CPU seconds, and wall seconds summed over threads.
    pub gen_cpu_s: f64,
    pub gen_wall_s: f64,
    pub tally: Tally,
}

/// A slice of load for one lane.
enum Job {
    /// Bursts of pipelined requests until `dur` has passed.
    Closed { dur: Duration, round: u64 },
    /// One request every `interval` from `first` until `end`, each timed
    /// from when it was due; `t0` is the slice's start.
    Open {
        t0: Instant,
        first: Instant,
        interval: Duration,
        end: Instant,
        round: u64,
    },
}

/// Due time (from the slice's start), op kind, latency and lateness (ms)
/// of one open-loop request.
type Timed = (Duration, usize, f64, f64);

/// What a lane did in one slice.
struct LaneOut {
    wall_s: f64,
    cpu_s: f64,
    timed: Vec<Timed>,
    asked: Vec<Asked>,
    answers: Vec<Response>,
}

/// One connection and the thread that drives it, alive as long as the rig.
/// Load threads spawned afresh for each slice would take over the malloc
/// arenas that the checkpoint half's short-lived threads leave with tens of
/// MB free at the top; their first frees hand that memory back to the
/// kernel, and requests stalled for 20–60 ms.
struct Lane {
    jobs: mpsc::Sender<(Job, Arc<Tracer>)>,
    done: mpsc::Receiver<LaneOut>,
    thread: JoinHandle<()>,
}

/// A lane thread's state.
struct LoadThread {
    lane: usize,
    client: ServeClient,
    pool: Arc<Pool>,
    seed: u64,
    /// Requests pipelined per burst in the closed loop.
    depth: usize,
}

impl LoadThread {
    fn run(mut self, jobs: mpsc::Receiver<(Job, Arc<Tracer>)>, done: mpsc::Sender<LaneOut>) {
        for (job, tracer) in jobs {
            let cpu0 = host::thread_cpu_s();
            let mut out = match job {
                Job::Closed { dur, round } => self.closed(dur, round, &tracer),
                Job::Open {
                    t0,
                    first,
                    interval,
                    end,
                    round,
                } => self.open(t0, first, interval, end, round, &tracer),
            };
            out.cpu_s = host::thread_cpu_s() - cpu0;
            if done.send(out).is_err() {
                break;
            }
        }
    }

    fn closed(&mut self, dur: Duration, round: u64, tracer: &Tracer) -> LaneOut {
        let mut ops = OpMix::new(mix(self.seed, round << 8 | self.lane as u64));
        let (mut asked, mut answers) = (Vec::<Asked>::new(), Vec::new());
        let base = request_base(round, self.lane, 0);
        let t0 = Instant::now();
        while t0.elapsed() < dur {
            let from = asked.len();
            for _ in 0..self.depth {
                let id = base + asked.len() as u64;
                let (kind, i) = ops.next();
                asked.push((id, kind, i));
            }
            let reqs: Vec<Request> = asked[from..]
                .iter()
                .map(|&(id, k, i)| self.pool.request(k, i, id))
                .collect();
            let span = tracer.begin("serve.burst", 0, base + from as u64);
            let r = self.client.request_burst(&reqs);
            tracer.end(span);
            match r {
                Ok(resps) => answers.extend(resps),
                Err(_) => break,
            }
        }
        LaneOut {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: 0.0,
            timed: Vec::new(),
            asked,
            answers,
        }
    }

    fn open(
        &mut self,
        t0: Instant,
        first: Instant,
        interval: Duration,
        end: Instant,
        round: u64,
        tracer: &Tracer,
    ) -> LaneOut {
        let mut ops = OpMix::new(mix(self.seed, round << 8 | self.lane as u64 | 0x80));
        let (mut timed, mut asked, mut answers) = (Vec::new(), Vec::new(), Vec::new());
        let base = request_base(round, self.lane, 1);
        for n in 0u32.. {
            let due = first + interval * n;
            if due >= end {
                break;
            }
            let id = base + u64::from(n);
            let (kind, i) = ops.next();
            let req = self.pool.request(kind, i, id);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let span = tracer.begin("serve.request", 0, id);
            let sent = Instant::now();
            let r = self.client.request(&req);
            let done = Instant::now();
            tracer.end(span);
            asked.push((id, kind, i));
            match r {
                Ok(resp) => answers.push(resp),
                Err(_) => break,
            }
            timed.push((
                due - t0,
                kind,
                (done - due).as_secs_f64() * 1e3,
                sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            ));
        }
        LaneOut {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: 0.0,
            timed,
            asked,
            answers,
        }
    }
}

fn connect(server: &Server) -> Result<ServeClient, String> {
    let c = ServeClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    c.set_timeouts(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

impl Rig {
    /// Start the server on loopback with payloads cut from `data` (see
    /// [`Pool::new`]), open `conns` load connections and a probe
    /// connection, and warm every connection and op kind up (checked like
    /// any other op).
    pub fn start(data: &[u8], parts: &[usize], seed: u64, conns: usize) -> Result<Rig, String> {
        let pool = Arc::new(Pool::new(data, parts, seed)?);
        let server = Server::start(ServeConfig {
            queue_depth: 64,
            request_timeout: Duration::from_secs(10),
            // Connections idle through the checkpoint half of each round.
            read_timeout: Duration::from_secs(600),
            write_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("starting primacy-serve: {e}"))?;
        let mut clients = (0..=conns)
            .map(|_| connect(&server))
            .collect::<Result<Vec<_>, _>>()?;
        let mut tally = Tally::default();
        for (c, client) in clients.iter_mut().enumerate() {
            for kind in 0..KINDS {
                for i in 0..4 {
                    let id = (c * 1000 + kind * 10 + i) as u64;
                    let resp = client
                        .request(&pool.request(kind, i, id))
                        .map_err(|e| e.to_string())?;
                    verify(&pool, &[(id, kind, i)], vec![resp], &mut tally);
                }
            }
        }
        if tally.ok != tally.attempted {
            return Err(format!("serve warm-up failed: {tally:?}"));
        }
        let probe = clients.pop().ok_or("no probe connection")?;
        // Never more in flight than the queue holds, so the closed loop
        // saturates the workers without drawing `Busy`.
        let depth = (64 / conns.max(1)).clamp(1, 32);
        let lanes = clients
            .into_iter()
            .enumerate()
            .map(|(lane, client)| {
                let (jobs, job_rx) = mpsc::channel();
                let (done_tx, done) = mpsc::channel();
                let load = LoadThread {
                    lane,
                    client,
                    pool: Arc::clone(&pool),
                    seed,
                    depth,
                };
                let thread = std::thread::spawn(move || load.run(job_rx, done_tx));
                Lane { jobs, done, thread }
            })
            .collect();
        Ok(Rig {
            lanes,
            probe,
            server,
            pool,
            seed,
        })
    }

    /// Give every lane its job and collect what each did.
    fn slice(&self, job: impl Fn(usize) -> Job, tracer: &Arc<Tracer>) -> Vec<LaneOut> {
        for (c, lane) in self.lanes.iter().enumerate() {
            lane.jobs
                .send((job(c), Arc::clone(tracer)))
                .expect("load thread alive while the rig is");
        }
        self.lanes
            .iter()
            .map(|lane| {
                lane.done
                    .recv()
                    .expect("load thread alive while the rig is")
            })
            .collect()
    }

    /// Closed loop for `dur`: every connection sends bursts of pipelined
    /// requests, the next burst only after the last answer. Returns
    /// completed ops per second.
    pub fn closed(&mut self, dur: Duration, round: u64, tracer: &Arc<Tracer>) -> (f64, Tally) {
        let runs = self.slice(|_| Job::Closed { dur, round }, tracer);
        let mut tally = Tally::default();
        let (mut done, mut wall) = (0u64, 0f64);
        for out in runs {
            done += out
                .answers
                .iter()
                .filter(|r| r.status == Status::Ok)
                .count() as u64;
            wall = wall.max(out.wall_s);
            verify(&self.pool, &out.asked, out.answers, &mut tally);
        }
        (done as f64 / wall.max(1e-9), tally)
    }

    /// Open loop for `dur` at `rate` ops/s in total, spread evenly over the
    /// lanes. Each request is timed from the moment it was due, so a stall
    /// also delays every request behind it. The samples come back in the
    /// order the requests were due.
    pub fn open(&mut self, dur: Duration, rate: f64, round: u64, tracer: &Arc<Tracer>) -> OpenOut {
        let lanes = self.lanes.len();
        let interval = Duration::from_secs_f64(lanes as f64 / rate);
        // Lead time so every lane has its job by its first due time.
        let t0 = Instant::now() + Duration::from_millis(2);
        let job = |c: usize| Job::Open {
            t0,
            first: t0 + interval.mul_f64(c as f64 / lanes as f64),
            interval,
            end: t0 + dur,
            round,
        };
        let runs = self.slice(job, tracer);
        let mut total = OpenOut::default();
        let mut all: Vec<Timed> = Vec::new();
        for out in runs {
            all.extend(out.timed);
            total.gen_cpu_s += out.cpu_s;
            total.gen_wall_s += out.wall_s;
            verify(&self.pool, &out.asked, out.answers, &mut total.tally);
        }
        all.sort_by_key(|t| t.0);
        total.kinds = all.iter().map(|t| t.1).collect();
        (total.latency_ms, total.late_ms) = all.iter().map(|t| (t.2, t.3)).unzip();
        total
    }

    /// Unloaded round trips on one connection: `Ping` (answered inline, no
    /// queue, no codec) and single ops cycling through every kind. Returns
    /// ping RTTs and `(kind, rtt)` pairs, in µs.
    pub fn unloaded(&mut self, n: usize, tracer: &Tracer) -> (Vec<f64>, Vec<(usize, f64)>, Tally) {
        let mut rng = Rng::seed_from_u64(mix(self.seed, 0x756e_6c6f));
        let (mut pings, mut ops, mut tally) = (Vec::new(), Vec::new(), Tally::default());
        // A round number no run reaches, so the ids stay clear of every round's.
        let base = request_base(ROUND_IDS - 1, 0, 2);
        for k in 0..n {
            let id = base + 2 * k as u64;
            let span = tracer.begin("serve.ping", 0, id);
            let r = self.probe.ping(id, 0);
            let dt = tracer.end(span);
            tally.attempted += 1;
            match r {
                Ok(resp) if resp.status == Status::Ok && resp.request_id == id => {
                    tally.ok += 1;
                    pings.push(dt.as_secs_f64() * 1e6);
                }
                _ => tally.errors += 1,
            }
            let (id, kind, i) = (id + 1, k % KINDS, rng.gen_range(0..POOL));
            let req = self.pool.request(kind, i, id);
            let span = tracer.begin("serve.request", 0, id);
            let r = self.probe.request(&req);
            let dt = tracer.end(span);
            verify(
                &self.pool,
                &[(id, kind, i)],
                r.into_iter().collect(),
                &mut tally,
            );
            ops.push((kind, dt.as_secs_f64() * 1e6));
        }
        (pings, ops, tally)
    }

    /// Direct codec time (µs) of each op kind on every pooled payload.
    pub fn codec_us(&self, tracer: &Tracer) -> Vec<Vec<f64>> {
        let mut direct = Direct::new();
        (0..KINDS)
            .map(|kind| {
                (0..POOL)
                    .map(|i| {
                        let input = self.pool.io(kind, i).0;
                        let span = tracer.begin("codecs.direct", 0, kind as u64);
                        let r = direct.run(kind, std::hint::black_box(input));
                        let dt = tracer.end(span);
                        std::hint::black_box(r).expect("pooled payloads were coded in set-up");
                        dt.as_secs_f64() * 1e6
                    })
                    .collect()
            })
            .collect()
    }

    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Stop the load threads, close every connection, then drain and join
    /// the server.
    pub fn stop(self) -> primacy_serve::MetricsSnapshot {
        for Lane { jobs, done, thread } in self.lanes {
            drop((jobs, done));
            thread.join().expect("load thread panicked");
        }
        drop(self.probe);
        self.server.shutdown()
    }
}

/// Round numbers that fit in request ids. Ids stay below 2^53, so span
/// records (JSON numbers) carry them exactly.
pub const ROUND_IDS: u64 = 1 << 20;

/// Unique request ids: round, connection and loop kind in the high bits.
fn request_base(round: u64, conn: usize, lane: u64) -> u64 {
    (round << 32) | ((conn as u64) << 24) | (lane << 22)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mix_has_a_fixed_composition() {
        let mut ops = OpMix::new(5);
        let mut count = [0usize; KINDS];
        for _ in 0..10 * MIX.len() {
            let (kind, i) = ops.next();
            count[kind] += 1;
            assert!(i < POOL);
        }
        assert_eq!(count, [20, 20, 20, 20, 10, 10, 10, 10]);
        // Seeded: the same stream gives the same draws, another does not.
        let draws = |stream| {
            let mut ops = OpMix::new(stream);
            (0..24).map(|_| ops.next()).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
    }

    #[test]
    fn pool_draws_every_array_in_the_same_share() {
        // Two arrays of doubles: 1.0 everywhere, then 2.0 everywhere.
        let data: Vec<u8> = [1.0f64, 2.0]
            .iter()
            .flat_map(|v| std::iter::repeat_n(v.to_le_bytes(), 4096).flatten())
            .collect();
        let pool = Pool::new(&data, &[32768, 32768], 3).unwrap();
        for (i, p) in pool.plain.iter().enumerate() {
            let want = [1.0f64, 2.0][i % 2].to_le_bytes();
            assert!(p.chunks(8).all(|c| c == want), "payload {i} crosses arrays");
        }
        assert!(Pool::new(&data, &[65536, 8], 3).is_err());
    }

    #[test]
    fn serve_loops_check_every_response() {
        let data = primacy_datagen::DatasetId::GtsPhiL.generate_bytes(1 << 15);
        let mut rig = Rig::start(&data, &[data.len()], 11, 2).unwrap();
        let tracer = Arc::new(Tracer::new());
        let (ops_s, tally) = rig.closed(Duration::from_millis(100), 0, &tracer);
        assert!(ops_s > 0.0);
        assert!(
            tally.attempted > 0 && tally.ok == tally.attempted,
            "{tally:?}"
        );
        let open = rig.open(Duration::from_millis(200), 400.0, 1, &tracer);
        assert_eq!(open.tally.ok, open.tally.attempted);
        assert!(
            (60..=90).contains(&open.latency_ms.len()),
            "{}",
            open.latency_ms.len()
        );
        let (pings, ops, tally) = rig.unloaded(16, &tracer);
        assert_eq!(
            (pings.len(), ops.len(), tally.errors, tally.wrong),
            (16, 16, 0, 0)
        );
        let snap = rig.stop();
        assert_eq!((snap.busy, snap.total_panics()), (0, 0));
    }
}
