//! The sink the benchmark hands to `ArchiveWriter`.
//!
//! Bytes land in memory (or are dropped, for the compress-only reference
//! write). An optional pacer models the per-node staging link of the
//! paper's §IV: each `write` of `len` bytes blocks, without using CPU, until
//! `len / bps` has passed since it began. A link does not bank idle time, so
//! the pacing is per transfer, not cumulative.

use crate::trace::Tracer;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Sink {
    buf: Vec<u8>,
    keep: bool,
    bps: Option<f64>,
    /// Time spent inside `write` calls.
    pub busy: Duration,
    pub writes: u64,
    pub bytes: u64,
    tracer: Arc<Tracer>,
    parent: u32,
    op: u64,
}

impl Sink {
    /// A sink over `buf` (cleared first, capacity kept) that appends what
    /// it is given when `keep` is set and drops it otherwise, paced at `bps`
    /// bytes/s when given. Its `write` calls are traced under `parent`.
    pub fn new(
        mut buf: Vec<u8>,
        keep: bool,
        bps: Option<f64>,
        tracer: Arc<Tracer>,
        parent: u32,
        op: u64,
    ) -> Sink {
        buf.clear();
        Sink {
            buf,
            keep,
            bps,
            busy: Duration::ZERO,
            writes: 0,
            bytes: 0,
            tracer,
            parent,
            op,
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Write for Sink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let span = self.tracer.begin("sink.write", self.parent, self.op);
        let t0 = Instant::now();
        if self.keep {
            self.buf.extend_from_slice(data);
        }
        if let Some(bps) = self.bps {
            let target = Duration::from_secs_f64(data.len() as f64 / bps);
            let spent = t0.elapsed();
            if target > spent {
                std::thread::sleep(target - spent);
            }
        }
        self.busy += self.tracer.end(span);
        self.writes += 1;
        self.bytes += data.len() as u64;
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_sink_delivers_its_set_rate() {
        let bps = 150e6;
        let mut sink = Sink::new(Vec::new(), false, Some(bps), Arc::new(Tracer::new()), 0, 0);
        let block = vec![7u8; 3 << 20];
        let t = Instant::now();
        for _ in 0..8 {
            sink.write_all(&block).unwrap();
        }
        let rate = sink.bytes as f64 / t.elapsed().as_secs_f64();
        assert_eq!(sink.bytes, 8 * (3 << 20));
        assert_eq!(sink.writes, 8);
        assert!(
            (rate / bps - 1.0).abs() < 0.05,
            "paced at {rate:.0} B/s, set to {bps:.0}"
        );
    }

    #[test]
    fn memory_sink_keeps_bytes_in_order() {
        let mut sink = Sink::new(vec![9; 4], true, None, Arc::new(Tracer::new()), 0, 0);
        sink.write_all(b"abc").unwrap();
        sink.write_all(b"de").unwrap();
        assert_eq!(sink.into_bytes(), b"abcde");
    }
}
