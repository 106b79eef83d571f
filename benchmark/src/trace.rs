//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! A span has a name, start, end, parent span and operation id. Spans are
//! kept in memory and written out once at the end of the run. With tracing
//! off, [`Tracer::begin`]/[`Tracer::end`] still time the call (the benchmark
//! needs the duration either way) but record nothing, so the untraced run
//! pays only for the clock reads.

use primacy_bench::json::Value;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An open span: returned by [`Tracer::begin`], closed by [`Tracer::end`].
pub struct Open {
    pub id: u32,
    parent: u32,
    op: u64,
    name: &'static str,
    start: Instant,
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off (the traced run alternates rounds).
    pub fn set_on(&self, on: bool) {
        // ORDERING: a plain switch read by the same threads that record; no
        // data is published through it.
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        // ORDERING: see `set_on`.
        self.on.load(Ordering::Relaxed)
    }

    /// Open a span under `parent` (0 = root) for operation `op`.
    pub fn begin(&self, name: &'static str, parent: u32, op: u64) -> Open {
        let id = if self.is_on() {
            // ORDERING: unique-id ticket; nothing else synchronizes on it.
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            op,
            name,
            start: Instant::now(),
        }
    }

    /// Close `open`, recording it when tracing is on; returns its duration.
    pub fn end(&self, open: Open) -> Duration {
        let end = Instant::now();
        let dt = end - open.start;
        if open.id != 0 {
            let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
            let span = Span {
                id: open.id,
                parent: open.parent,
                op: open.op,
                name: open.name,
                start_us: us(open.start),
                end_us: us(end),
            };
            self.spans
                .lock()
                .expect("span list poisoned by a panicking recorder")
                .push(span);
        }
        dt
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let span = Value::object([
                ("id", Value::from(s.id as usize)),
                ("parent", Value::from(s.parent as usize)),
                ("op", Value::Number(s.op as f64)),
                ("name", s.name.into()),
                ("start_us", s.start_us.into()),
                ("end_us", s.end_us.into()),
            ]);
            writeln!(out, "{}", span.to_json())?;
        }
        out.flush()
    }
}

/// Durations (ms) of the spans named `name`, summed per parent span — e.g.
/// the total time one write spent inside `append`.
pub fn sum_by_parent(spans: &[Span], name: &str) -> Vec<f64> {
    let mut per: std::collections::BTreeMap<u32, f64> = Default::default();
    for s in spans.iter().filter(|s| s.name == name) {
        *per.entry(s.parent).or_default() += s.ms();
    }
    per.into_values().collect()
}

/// Durations (ms) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}
