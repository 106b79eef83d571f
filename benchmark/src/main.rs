//! `primacy-benchmark`: the repository's benchmark. Each run writes,
//! restart-reads and range-reads a checkpoint through the archive layer,
//! and drives `primacy-serve` with a closed and an open loop, on one of
//! three named workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload ckpt-structured --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run first sets up [`SETUPS`] times — input generation, the archive the
//! read phases use, server start and warm-up — and reports the median as
//! `setup_s`. It then runs rounds (see `workload.rs`) until `--seconds` is
//! spent, and at least [`MIN_ROUNDS`] of them. Timings are medians over
//! rounds, percentiles over pooled samples, or (the open loop's p99) the
//! median over time windows of each window's percentile; never single
//! shots.
//!
//! Every timing (`setup_s`, `write_mbps`, `write_cpu_s_per_gb`,
//! `read_mbps`, `range_p50_ms`, `range_p95_ms`, `serve_p50_ms`) is stated
//! at a reference host speed. On a shared host the speed of the memory
//! system drifts over minutes (by up to 1.7× on a 2-vCPU Xeon VM) as
//! other tenants contend for the last-level cache and memory. Compression,
//! chunk decoding and small-payload codec work follow that drift (in one
//! set of ten ckpt-structured runs, write CPU per GB rose 1.6× as the copy
//! bandwidth fell 1.7×, while the CRC-32 reference kernel showed no
//! trend), so two runs of the same code minutes apart would differ by as
//! much as a real regression. The benchmark therefore samples the host's
//! copy bandwidth (`host::CopyProbe`) before and after each set-up, and in
//! each round before and after its write, after its read phases and after
//! its serve phases, and scales each phase's timings by the mean of the
//! samples around it to what they would be at [`host::REF_COPY_GBPS`].
//! The probe is the benchmark's own code, so a change to the program
//! moves the scaled figures as much as the raw ones. On ckpt-noise-staged
//! part of the write's wall is the paced link, whose speed does not drift,
//! but compression is what blocks that write (it runs below the link's
//! 150 MB/s), so it is scaled too.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` records spans
//! around the layer calls on every other round, then runs passes that
//! attribute the time to pipeline stages, codecs, the archive and the
//! server, and prints the per-layer metrics. The spans go to
//! `benchmark/out/`.
//!
//! Standard output ends with the full report — seed, nproc, the host
//! reference kernels, every metric with its sample count, median and
//! quartiles — and then the one-line result. The report is also written to
//! `benchmark/out/`. A wrong output, a failed operation, a missing metric
//! or a physically impossible record makes `correct` false.

mod ckpt;
mod host;
mod metrics;
mod serve;
mod sinks;
mod stats;
mod trace;
mod workload;

use ckpt::{Checkpoint, StagePass, WriteOut};
use metrics::Report;
use primacy_bench::json::Value;
use serve::{OpenOut, Rig, Tally};
use stats::median;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds a run makes at least, whatever `--seconds` says: enough for
/// medians, and for 200 range reads so ten lie beyond their p95.
const MIN_ROUNDS: usize = 5;
/// Restart reads per round: each takes a tenth of a second or less, so a
/// run's median rests on a few dozen of them.
const READS_PER_ROUND: usize = 3;
/// Compress-only reference writes in the traced run.
const NULL_WRITES: u64 = 3;
/// Unloaded ping and op round trips in the traced run.
const UNLOADED: usize = 300;
/// Operation ids of the traced passes, clear of every round's and below
/// 2^53 (see `serve::ROUND_IDS`).
const PASS_OP: u64 = 1 << 52;
/// Fixed offered rate of the open loop, ops/s. Each connection has one
/// request in flight, so a connection's capacity is one op per op latency
/// (1–2 ms on a 2-vCPU host), not the closed loop's pipelined rate. At 500
/// ops/s the two connections were 40 % busy, every slow fpc op made the
/// next ones late, and the median moved 2× with the payloads a seed drew;
/// at this rate a connection is busy a fifth of the time or less, so the
/// latency reflects the ops rather than queueing behind them.
const OPEN_RATE: f64 = 200.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds = get("--seconds")?
        .parse::<u64>()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or("--seconds takes a whole number of at least 1")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything set-up builds.
struct Bench {
    ckpt: Checkpoint,
    rig: Rig,
}

fn set_up(w: &Workload, seed: u64, threads: usize) -> Result<Bench, String> {
    let (input, parts) = workload::generate(&w.data, seed);
    let rig = Rig::start(&input, &parts, seed, threads)?;
    let ckpt = Checkpoint::build(input, parts, w.link_bps, seed, threads)?;
    Ok(Bench { ckpt, rig })
}

/// What one round measured; `traced` marks rounds run with spans on.
struct Round {
    traced: bool,
    write: Option<WriteOut>,
    /// Wall seconds of each restart read that returned the input.
    read_s: Vec<f64>,
    range_ms: Vec<f64>,
    /// Host copy bandwidth (GB/s) around the write, around the archive
    /// read phases, and around the serve phases.
    write_gbps: f64,
    read_gbps: f64,
    serve_gbps: f64,
    ops_s: f64,
    open: OpenOut,
}

/// Host speed during a phase over the reference host's (see
/// [`host::REF_COPY_GBPS`]): the phase's times are multiplied by it and its
/// rates divided by it, to state them at the reference speed.
fn host_speed(copy_gbps: f64) -> f64 {
    copy_gbps / host::REF_COPY_GBPS
}

/// Every operation's outcome, and a line for each that failed.
#[derive(Default)]
struct Outcomes {
    tally: Tally,
    failures: Vec<String>,
}

impl Outcomes {
    /// Count one operation. An error or a wrong output is a failure, and
    /// its timing is not used.
    fn op<T>(&mut self, what: &str, r: Result<T, String>, right: impl Fn(&T) -> bool) -> Option<T> {
        self.tally.attempted += 1;
        match r {
            Ok(v) if right(&v) => {
                self.tally.ok += 1;
                Some(v)
            }
            Ok(_) => {
                self.tally.wrong += 1;
                self.failures.push(format!("{what}: wrong output"));
                None
            }
            Err(e) => {
                self.tally.errors += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    fn batch(&mut self, what: &str, t: &Tally) {
        if t.failed() > 0 {
            self.failures.push(format!("{what}: {t:?}"));
        }
        self.tally.add(t);
    }
}

fn round(
    b: &mut Bench,
    probe: &mut host::CopyProbe,
    w: &Workload,
    k: usize,
    threads: usize,
    tracer: &Arc<Tracer>,
    out: &mut Outcomes,
) -> Round {
    let op = (k as u64) << 32;
    let first = probe.sample();
    let write = out.op("write", b.ckpt.write(threads, tracer, op, true), |o| {
        o.identical
    });
    let before = probe.sample();
    let read_s = (0..READS_PER_ROUND)
        .filter_map(|_| {
            out.op("read", b.ckpt.read(threads, tracer, op | 1), |o| {
                o.identical
            })
        })
        .map(|o| o.wall_s)
        .collect();
    let range_ms = match b.ckpt.ranges(k, tracer, op | 1 << 16) {
        Ok((lat, wrong)) => {
            let n = lat.len() as u64;
            let t = Tally {
                attempted: n,
                ok: n - wrong,
                wrong,
                ..Tally::default()
            };
            out.batch("range reads", &t);
            lat
        }
        Err(e) => {
            out.op::<()>("range reads", Err(e), |_| true);
            Vec::new()
        }
    };
    let between = probe.sample();
    let (ops_s, t) = b.rig.closed(w.closed, k as u64, tracer);
    out.batch("closed loop", &t);
    let open = b.rig.open(w.open, OPEN_RATE, k as u64, tracer);
    out.batch("open loop", &open.tally);
    let after = probe.sample();
    Round {
        traced: tracer.is_on(),
        write,
        read_s,
        range_ms,
        write_gbps: (first + before) / 2.0,
        read_gbps: (before + between) / 2.0,
        serve_gbps: (between + after) / 2.0,
        ops_s,
        open,
    }
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> Option<f64>) -> Vec<f64> {
    rounds.iter().filter_map(f).collect()
}

fn pooled<T: Copy>(rounds: &[Round], f: impl Fn(&Round) -> &[T]) -> Vec<T> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

fn end_to_end(
    rounds: &[Round],
    ckpt: &Checkpoint,
    setup_s: &[f64],
    peak_rss_mb: f64,
    r: &mut Report,
) {
    let mb = ckpt.input.len() as f64 / 1e6;
    r.sampled(
        "write_mbps",
        &per_round(rounds, |x| {
            let speed = host_speed(x.write_gbps);
            x.write.as_ref().map(|o| mb / o.wall_s / speed)
        }),
    );
    let reads: Vec<f64> = rounds
        .iter()
        .flat_map(|x| x.read_s.iter().map(|s| mb / s / host_speed(x.read_gbps)))
        .collect();
    r.sampled("read_mbps", &reads);
    let ranges: Vec<f64> = rounds
        .iter()
        .flat_map(|x| x.range_ms.iter().map(|ms| ms * host_speed(x.read_gbps)))
        .collect();
    r.tail("range_p50_ms", &ranges, 0.5);
    r.tail("range_p95_ms", &ranges, 0.95);
    r.exact("ratio", ckpt.ratio());
    r.sampled(
        "write_cpu_s_per_gb",
        &per_round(rounds, |x| {
            let speed = host_speed(x.write_gbps);
            x.write.as_ref().map(|o| o.cpu_s * 1e3 / mb * speed)
        }),
    );
    let latency: Vec<f64> = rounds
        .iter()
        .flat_map(|x| {
            let speed = host_speed(x.serve_gbps);
            x.open.latency_ms.iter().map(move |ms| ms * speed)
        })
        .collect();
    r.mix_p50(
        "serve_p50_ms",
        &pooled(rounds, |x| x.open.kinds.as_slice()),
        &latency,
    );
    r.sampled("setup_s", setup_s);
    r.exact("peak_rss_mb", peak_rss_mb);
}

/// Traced ÷ untraced median of one round timing.
fn traced_over_untraced(rounds: &[Round], f: impl Fn(&Round) -> Option<f64>) -> f64 {
    let side = |traced: bool| {
        let v: Vec<f64> = rounds
            .iter()
            .filter(|x| x.traced == traced)
            .filter_map(&f)
            .collect();
        median(&v)
    };
    side(true) / side(false)
}

/// How much the spans slowed the traced rounds, %: the mean slowdown of
/// the round timings, traced against untraced. Noise that reads as a
/// speed-up counts as no overhead.
fn trace_overhead_pct(rounds: &[Round]) -> f64 {
    let slowdowns = [
        traced_over_untraced(rounds, |x| x.write.as_ref().map(|o| o.wall_s)),
        traced_over_untraced(rounds, |x| Some(median(&x.read_s))),
        traced_over_untraced(rounds, |x| Some(median(&x.range_ms))),
        1.0 / traced_over_untraced(rounds, |x| Some(x.ops_s)),
        traced_over_untraced(rounds, |x| Some(median(&x.open.latency_ms))),
    ];
    let mean = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
    (100.0 * (mean - 1.0)).clamp(0.0, 100.0)
}

fn pipeline_metrics(p: &StagePass, r: &mut Report) {
    for (k, stage) in primacy_core::STAGES.iter().enumerate() {
        r.exact(&format!("pipeline.{stage}.compress_ms"), p.compress_ms[k]);
        // A stage with no decode work (freq) emits no decode record.
        if p.decompress_ms[k] > 0.0 {
            r.exact(
                &format!("pipeline.{stage}.decompress_ms"),
                p.decompress_ms[k],
            );
        }
    }
    let compress: f64 = p.compress_ms.iter().sum();
    let decompress: f64 = p.decompress_ms.iter().sum();
    r.exact(
        "pipeline.stage_sum_pct",
        100.0 * compress / p.compress_wall_ms,
    );
    r.exact(
        "pipeline.decode_stage_sum_pct",
        100.0 * decompress / p.decompress_wall_ms,
    );
    for (what, sum, wall) in [
        ("compress", compress, p.compress_wall_ms),
        ("decompress", decompress, p.decompress_wall_ms),
    ] {
        if sum < 0.9 * wall {
            let pct = 100.0 * sum / wall;
            r.problems.push(format!(
                "{what} stages cover only {pct:.1} % of the calls' wall"
            ));
        }
    }
    let deflate = p.compress_ms[StagePass::stage("deflate")];
    let split = p.hi_ms + p.lo_ms + p.crc_ms;
    if (split - deflate).abs() > 0.1 * deflate {
        r.problems.push(format!(
            "deflate hi + lo + CRC took {split:.1} ms, the pipeline's deflate stage {deflate:.1} ms"
        ));
    }
    r.exact("pipeline.own_index_chunks", p.own_index_chunks as f64);
    r.exact(
        "pipeline.isobar_compressible_pct",
        100.0 * p.compressible_bytes / p.bytes,
    );
    r.exact("codecs.deflate.hi_compress_ms", p.hi_ms);
    r.exact("codecs.deflate.lo_compress_ms", p.lo_ms);
    r.exact("codecs.deflate.crc_ms", p.crc_ms);
    r.exact("codecs.deflate.hi_ratio", p.hi_in as f64 / p.hi_out as f64);
    // An empty ISOBAR stream (every column incompressible) is neither
    // shrunk nor grown.
    let lo_ratio = if p.lo_in == 0 {
        1.0
    } else {
        p.lo_in as f64 / p.lo_out as f64
    };
    r.exact("codecs.deflate.lo_ratio", lo_ratio);
}

/// The traced run's per-layer metrics: from the spans of the traced rounds,
/// from the values the layers return, and from passes made for them here.
fn per_layer(
    b: &mut Bench,
    rounds: &[Round],
    threads: usize,
    tracer: &Arc<Tracer>,
    out: &mut Outcomes,
    r: &mut Report,
) {
    // The rounds' spans, before the passes below add their own.
    let spans = tracer.spans();

    let pass = b.ckpt.stage_pass(tracer, PASS_OP);
    if let Some(p) = out.op("stage pass", pass, |p| p.wrong == 0) {
        pipeline_metrics(&p, r);
    }
    let codec_us = b.rig.codec_us(tracer);
    for (kind, us) in codec_us.iter().enumerate() {
        let (codec, dir) = serve::kind_name(kind);
        r.sampled(&format!("codecs.{codec}.{dir}_us"), us);
    }

    let writes: Vec<&WriteOut> = rounds
        .iter()
        .filter(|x| x.traced)
        .filter_map(|x| x.write.as_ref())
        .collect();
    let of_writes = |f: fn(&WriteOut) -> f64| writes.iter().map(|o| f(o)).collect::<Vec<f64>>();
    let busy = of_writes(|o| o.sink_busy_ms);
    r.sampled(
        "archive.append_block_ms",
        &trace::sum_by_parent(&spans, "archive.append"),
    );
    r.sampled(
        "archive.finish_ms",
        &trace::durations(&spans, "archive.finish"),
    );
    r.sampled("archive.sink_busy_ms", &busy);
    r.sampled("archive.sink_writes", &of_writes(|o| o.sink_writes as f64));
    r.sampled("archive.sink_bytes", &of_writes(|o| o.sink_bytes as f64));
    let mut compress_only = Vec::new();
    for i in 0..NULL_WRITES {
        let w = b.ckpt.write(threads, tracer, PASS_OP + 1 + i, false);
        if let Some(o) = out.op("compress-only write", w, |_| true) {
            compress_only.push(o.wall_s * 1e3);
        }
    }
    let wall = of_writes(|o| o.wall_s * 1e3);
    let hidden = stats::hidden_pct(median(&compress_only), median(&busy), median(&wall));
    r.exact("archive.hidden_pct", hidden);
    r.sampled("archive.open_ms", &trace::durations(&spans, "archive.open"));
    let mut chunk_ms = Vec::new();
    while chunk_ms.len() < 32 {
        let pass = b.ckpt.read_chunk_pass(tracer, PASS_OP);
        match out.op("read_chunk pass", pass, |(_, wrong)| *wrong == 0) {
            Some((lat, _)) if !lat.is_empty() => chunk_ms.extend(lat),
            _ => break,
        }
    }
    r.sampled("archive.read_chunk_ms", &chunk_ms);
    let performed = rounds.iter().map(|x| x.range_ms.len()).sum();
    if let Some((per_read, amp)) =
        out.op("range geometry", b.ckpt.range_geometry(performed), |_| true)
    {
        r.exact("archive.range_chunks_per_read", per_read);
        r.exact("archive.range_decode_amp", amp);
    }

    let (pings, ops, t) = b.rig.unloaded(UNLOADED, tracer);
    out.batch("unloaded ops", &t);
    r.sampled("serve.ping_rtt_us", &pings);
    r.sampled(
        "serve.op_rtt_us",
        &ops.iter().map(|o| o.1).collect::<Vec<_>>(),
    );
    let codec_median: Vec<f64> = codec_us.iter().map(|us| median(us)).collect();
    let non_codec: Vec<f64> = ops
        .iter()
        .map(|&(kind, rtt)| rtt - codec_median[kind])
        .collect();
    r.sampled("serve.non_codec_us", &non_codec);
    let m = b.rig.server().metrics();
    r.exact("serve.busy", m.busy as f64);
    r.exact("serve.timeouts", m.timeouts as f64);
    r.exact("serve.proto_errors", m.proto_errors as f64);
    r.exact("serve.send_failures", m.send_failures as f64);
    r.exact("serve.panics", m.total_panics() as f64);
    r.sampled("serve.max_ops_s", &per_round(rounds, |x| Some(x.ops_s)));
    r.windowed(
        "serve.open_p99_ms",
        &pooled(rounds, |x| x.open.latency_ms.as_slice()),
        0.99,
    );
    r.tail(
        "serve.gen_late_p99_ms",
        &pooled(rounds, |x| x.open.late_ms.as_slice()),
        0.99,
    );
    let gen_cpu: f64 = rounds.iter().map(|x| x.open.gen_cpu_s).sum();
    let gen_wall: f64 = rounds.iter().map(|x| x.open.gen_wall_s).sum();
    // One generator per core, so their summed wall is the machine's.
    r.exact("serve.gen_cpu_pct", (100.0 * gen_cpu / gen_wall).min(100.0));
    r.exact("trace_overhead_pct", trace_overhead_pct(rounds));
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut probe = host::CopyProbe::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench: Option<Bench> = None;
    for _ in 0..SETUPS {
        if let Some(old) = bench.take() {
            old.rig.stop();
        }
        let first = probe.sample();
        let t = Instant::now();
        bench = Some(set_up(w, args.seed, threads)?);
        let s = t.elapsed().as_secs_f64();
        setup_s.push(s * host_speed((first + probe.sample()) / 2.0));
    }
    let mut b = bench.ok_or("no set-up ran")?;

    let tracer = Arc::new(Tracer::new());
    let mut out = Outcomes::default();
    let mut rounds: Vec<Round> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    // Stop before a round that the mean round so far says would overrun.
    while rounds.len() < MIN_ROUNDS
        || t0.elapsed().mul_f64(1.0 + 1.0 / rounds.len() as f64) <= budget
    {
        tracer.set_on(args.trace && rounds.len() % 2 == 1);
        let r = round(
            &mut b,
            &mut probe,
            w,
            rounds.len(),
            threads,
            &tracer,
            &mut out,
        );
        rounds.push(r);
    }
    let measured_s = t0.elapsed().as_secs_f64();
    let mut report = Report::default();
    if args.trace {
        tracer.set_on(true);
        per_layer(&mut b, &rounds, threads, &tracer, &mut out, &mut report);
    }
    let Bench { ckpt, rig } = b;
    let serve_panics = rig.stop().total_panics();
    let peak_rss = host::peak_rss_mb();
    let machine = host::Host::measure();
    end_to_end(&rounds, &ckpt, &setup_s, peak_rss, &mut report);
    report.exact("host.nproc", machine.nproc as f64);
    report.exact("host.memcpy_gbps", machine.memcpy_gbps);
    report.exact("host.crc32_mbps", machine.crc32_mbps);
    let (attempted, failed) = (out.tally.attempted, out.tally.failed());
    report.exact("fail_pct", 100.0 * failed as f64 / attempted.max(1) as f64);

    let listed = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut checks = std::mem::take(&mut report.problems);
    checks.extend(stats::bound_violations(
        &report.records(),
        machine.memcpy_gbps,
    ));
    for (name, _) in listed {
        if report.get(name).is_none() {
            checks.push(format!("{name} was not measured"));
        }
    }
    if serve_panics > 0 {
        checks.push(format!("primacy-serve caught {serve_panics} panics"));
    }
    let correct = out.tally.wrong == 0 && out.tally.errors == 0 && checks.is_empty();

    let t = &out.tally;
    let strings =
        |v: &[String]| Value::from(v.iter().map(|s| s.as_str().into()).collect::<Vec<_>>());
    let count = |n: u64| Value::Number(n as f64);
    let full = Value::object([
        ("workload", w.name.into()),
        ("seed", count(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", count(args.seconds)),
        ("rounds", rounds.len().into()),
        ("measured_s", measured_s.into()),
        ("nproc", machine.nproc.into()),
        (
            "host",
            Value::object([
                ("memcpy_gbps", machine.memcpy_gbps.into()),
                (
                    "write_copy_gbps",
                    median(&per_round(&rounds, |x| Some(x.write_gbps))).into(),
                ),
                (
                    "read_copy_gbps",
                    median(&per_round(&rounds, |x| Some(x.read_gbps))).into(),
                ),
                (
                    "serve_copy_gbps",
                    median(&per_round(&rounds, |x| Some(x.serve_gbps))).into(),
                ),
                ("crc32_mbps", machine.crc32_mbps.into()),
            ]),
        ),
        ("open_rate_ops_s", OPEN_RATE.into()),
        ("correct", Value::Bool(correct)),
        (
            "tally",
            Value::object([
                ("attempted", count(t.attempted)),
                ("ok", count(t.ok)),
                ("refused", count(t.refused)),
                ("errors", count(t.errors)),
                ("wrong", count(t.wrong)),
            ]),
        ),
        (
            "failures",
            strings(&out.failures[..out.failures.len().min(20)]),
        ),
        ("checks", strings(&checks)),
        ("metrics", report.to_value()),
    ])
    .to_json();

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let saved = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), format!("{full}\n")))
        .and_then(|()| match args.trace {
            true => tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl"))),
            false => Ok(()),
        });
    if let Err(e) = saved {
        eprintln!(
            "primacy-benchmark: could not save the report in {}: {e}",
            dir.display()
        );
    }
    eprintln!(
        "{} seed {}: {} rounds in {measured_s:.1} s; {failed} of {attempted} operations failed",
        w.name,
        args.seed,
        rounds.len()
    );
    for m in &report.metrics {
        let s = m.summary;
        eprintln!(
            "  {:<36} {:>14.4} {:<6} n={:<6} q1={:.4} q3={:.4}",
            m.name, m.value, m.unit, s.n, s.q1, s.q3
        );
    }
    for line in out.failures.iter().chain(&checks) {
        eprintln!("  FAILED: {line}");
    }
    println!("{full}");
    println!("{}", report.result_line(listed, correct, attempted, failed));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "primacy-benchmark: {e}\nusage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("primacy-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
