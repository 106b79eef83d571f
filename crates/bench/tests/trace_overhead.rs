//! Trace-overhead smoke test (ISSUE 3 satellite): the observability layer
//! must be free when disabled and cheap when enabled.
//!
//! Two claims are pinned, both via the harness's median/MAD statistics (not
//! wall-clock absolutes, which are meaningless on shared CI machines):
//!
//! 1. **Disabled record sites cost one atomic load.** A tight loop over
//!    `span_duration`/`counter`/`observe` before tracing is enabled must
//!    average well under a microsecond per record — orders of magnitude
//!    below any real stage, so instrumented hot paths are unaffected.
//! 2. **Enabled tracing stays within noise of the disabled baseline.**
//!    Median compress time with tracing enabled and collecting must be
//!    within the disabled median plus a 25% margin plus several MADs. The
//!    margin is deliberately generous: CI runs this unoptimized on a
//!    single-core container where scheduler noise dwarfs the per-chunk cost
//!    of ~20 buffered records.
//!
//! Ordering matters: `primacy_trace::enable` has no off switch, so
//! everything is one `#[test]` — baseline first, enabled run last.

use primacy_bench::harness;
use primacy_core::{PrimacyCompressor, PrimacyConfig};
use primacy_datagen::DatasetId;
use primacy_trace as trace;
use std::time::Duration;

#[test]
fn tracing_overhead_is_within_noise() {
    // Keep the harness short: this is a smoke test, not a benchmark run.
    std::env::set_var("PRIMACY_BENCH_WARMUP", "1");
    std::env::set_var("PRIMACY_BENCH_SAMPLES", "7");

    // -- Claim 1: disabled record sites are near-free. ---------------------
    assert!(!trace::enabled(), "tracing not enabled yet");
    const RECORDS: u32 = 100_000;
    let disabled_records = harness::measure(|| {
        for i in 0..RECORDS {
            trace::span_duration("smoke.span", Duration::from_nanos(u64::from(i)));
            trace::counter("smoke.counter", 1);
            trace::observe("smoke.histogram", u64::from(i));
        }
    });
    let per_record = disabled_records.median / (3 * RECORDS);
    assert!(
        per_record < Duration::from_micros(1),
        "disabled record site costs {per_record:?} (expected ≪ 1µs)"
    );

    // -- Claim 2: enabled tracing is within noise of disabled. -------------
    // 64 KiB chunks over ~1.6 MB: enough chunks (~25) that per-chunk trace
    // overhead would show up, small enough for an unoptimized CI run.
    let cfg = PrimacyConfig {
        chunk_bytes: 64 * 1024,
        ..Default::default()
    };
    let compressor = PrimacyCompressor::new(cfg);
    let data = DatasetId::GtsPhiL.generate_bytes(200_000);

    let baseline = harness::measure(|| compressor.compress_bytes(&data).expect("compress"));

    trace::enable();
    assert!(trace::enabled());
    let traced = harness::measure(|| compressor.compress_bytes(&data).expect("compress"));
    trace::flush_thread();

    // Sanity: tracing was actually live during the traced run.
    let agg = trace::snapshot();
    assert!(agg.counter("chunk.compress") > 0, "collector saw no chunks");
    assert!(
        agg.span_total("deflate").as_nanos() > 0,
        "collector saw no stage spans"
    );

    // The traced median must sit within the baseline median plus a 25%
    // margin plus 4 MADs from each side — "within noise", robustly.
    let budget = baseline.median + baseline.median / 4 + 4 * baseline.mad + 4 * traced.mad;
    assert!(
        traced.median <= budget,
        "traced median {:?} exceeds noise budget {:?} (baseline {:?} ± {:?}, traced ± {:?})",
        traced.median,
        budget,
        baseline.median,
        baseline.mad,
        traced.mad
    );
}
