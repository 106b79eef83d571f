//! Host reference kernels and process accounting.
//!
//! The kernels (memcpy, a bytewise CRC-32, and the copy probe sampled in
//! every round) are the benchmark's own code, not the program's, so no
//! change to the program moves them: when they move, the host changed.
//! Reports carry them so runs made while the host's speed differs can be
//! compared, and the memory-bound timings are scaled by the probe.

use std::hint::black_box;
use std::time::Instant;

pub struct Host {
    pub nproc: usize,
    pub memcpy_gbps: f64,
    pub crc32_mbps: f64,
}

impl Host {
    pub fn measure() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            memcpy_gbps: memcpy_gbps(),
            crc32_mbps: crc32_mbps(),
        }
    }
}

/// Median copy bandwidth of a 64 MiB buffer, far larger than any LLC.
fn memcpy_gbps() -> f64 {
    let src = vec![0x5au8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    let rates: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            src.len() as f64 / 1e9 / t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&rates)
}

/// The host's memory speed of the moment, sampled between a run's phases
/// as the bandwidth of a copy larger than the per-core caches. On a shared
/// host, other tenants contend for the last-level cache and memory, and
/// the speed drifts over minutes: on a 2-vCPU Xeon VM, chunk decoding and
/// 2 KiB zlib compression both slowed by 1.4–1.5× as this copy did, while
/// compute-bound kernels (CRC-32, table-driven bit decoding) moved by less
/// than 1.1×. The buffers are touched when the probe is made, so a sample
/// times copying, not page faults.
pub struct CopyProbe {
    src: Vec<u8>,
    dst: Vec<u8>,
}

/// Copies per [`CopyProbe::sample`].
const PROBE_COPIES: usize = 9;

/// The copy bandwidth, GB/s, that memory-bound timings are stated at. A
/// round's write, read and serve timings are scaled by the round's
/// [`CopyProbe`] samples over this, so a run made while the host is slow
/// and one made while it is fast report about the same figure for the
/// same code.
pub const REF_COPY_GBPS: f64 = 6.0;

impl CopyProbe {
    pub fn new() -> CopyProbe {
        CopyProbe {
            src: vec![0x5a; 16 << 20],
            dst: vec![0xa5; 16 << 20],
        }
    }

    /// Median copy bandwidth, GB/s, over [`PROBE_COPIES`] copies.
    pub fn sample(&mut self) -> f64 {
        let rates: Vec<f64> = (0..PROBE_COPIES)
            .map(|_| {
                let t = Instant::now();
                self.dst.copy_from_slice(black_box(&self.src));
                black_box(&mut self.dst);
                self.src.len() as f64 / 1e9 / t.elapsed().as_secs_f64()
            })
            .collect();
        crate::stats::median(&rates)
    }
}

/// Plain table-driven CRC-32 (IEEE, reflected), one byte per step.
pub fn crc32_reference(data: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

fn crc32_mbps() -> f64 {
    let data: Vec<u8> = (0..8u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(crc32_reference(black_box(&data)));
            data.len() as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&rates)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// User + system CPU seconds on a CPU-time `clock`, to the nanosecond.
/// (`/proc`'s tick counts are 10 ms coarse: a sixth of the CPU time of a
/// 12 MiB checkpoint write.)
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the whole call, and
    // both clock ids the callers pass exist on Linux.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the whole process has used so far (every thread, live or
/// joined).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_crc_matches_the_standard_check_value() {
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32_reference(b"hello world"),
            primacy_codecs::checksum::crc32(b"hello world")
        );
    }

    #[test]
    fn copy_probe_samples_a_finite_rate() {
        let gbps = CopyProbe::new().sample();
        assert!(gbps.is_finite() && gbps > 0.0, "{gbps}");
    }

    #[test]
    fn process_accounting_reads_the_cpu_clocks_and_proc() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        black_box(crc32_reference(&vec![1u8; 1 << 20]));
        assert!(process_cpu_s() > p0 && thread_cpu_s() > t0);
        assert!(peak_rss_mb() > 0.0);
    }
}
