//! Checkpoint phases through the `archive` layer, plus the traced passes
//! that attribute them to the `pipeline` stages and the `codecs` backend.
//!
//! Every timed call is followed — never accompanied — by its correctness
//! check: written archives must be byte-identical to the one built in
//! set-up, restart reads must equal the input, and every range read must
//! equal the plain input slice.

use crate::host;
use crate::sinks::Sink;
use crate::trace::Tracer;
use primacy_codecs::checksum::crc32;
use primacy_codecs::CodecScratch;
use primacy_core::freq::FreqTable;
use primacy_core::idmap::IdMap;
use primacy_core::linearize::to_columns;
use primacy_core::split::split_hi_lo;
use primacy_core::{isobar, ArchiveReader, ArchiveWriter, DecodeScratch, Linearization};
use primacy_core::{PrimacyCompressor, PrimacyConfig, STAGES};
use primacy_datagen::Rng;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Range reads per round, at least: a round reads whole passes of the
/// pattern in [`seeded_ranges`], so some workloads read a few more.
const RANGES_PER_ROUND: usize = 40;
/// Rounds' worth of distinct seeded ranges; later rounds repeat them.
const RANGE_ROUNDS: usize = 8;
/// Passes of [`Checkpoint::stage_pass`]. A decode pass over noise takes
/// about 60 ms, so one preempted chunk would move its stage share by
/// several points; three passes dilute that.
const STAGE_PASSES: usize = 3;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub struct Checkpoint {
    pub input: Vec<u8>,
    /// Byte length of each array appended, in order.
    parts: Vec<usize>,
    /// The archive built in set-up; the read phases read it and every timed
    /// write must reproduce it byte for byte.
    pub golden: Vec<u8>,
    cfg: PrimacyConfig,
    link_bps: Option<f64>,
    ranges: Vec<(u64, usize)>,
    /// Range reads per round.
    pub per_round: usize,
    /// Sink buffer reused across writes, so each write lands in memory that
    /// is already mapped.
    spare: Vec<u8>,
}

pub struct WriteOut {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub sink_busy_ms: f64,
    pub sink_writes: u64,
    pub sink_bytes: u64,
    pub identical: bool,
}

pub struct ReadOut {
    pub wall_s: f64,
    pub identical: bool,
}

impl Checkpoint {
    pub fn build(
        input: Vec<u8>,
        parts: Vec<usize>,
        link_bps: Option<f64>,
        seed: u64,
        threads: usize,
    ) -> Result<Checkpoint, String> {
        let cfg = PrimacyConfig::default();
        let mut w = ArchiveWriter::with_overlap(Vec::new(), cfg.clone(), threads).map_err(err)?;
        let mut at = 0;
        for &len in &parts {
            w.append(&input[at..at + len]).map_err(err)?;
            at += len;
        }
        let golden = w.finish().map_err(err)?;
        let elements = (input.len() / cfg.element_size) as u64;
        let ranges = seeded_ranges(elements, cfg.chunk_elements() as u64, seed);
        let per_round = ranges.len() / RANGE_ROUNDS;
        Ok(Checkpoint {
            spare: Vec::with_capacity(golden.len() + (1 << 20)),
            input,
            parts,
            golden,
            cfg,
            link_bps,
            ranges,
            per_round,
        })
    }

    pub fn ratio(&self) -> f64 {
        self.input.len() as f64 / self.golden.len() as f64
    }

    /// One checkpoint write: `ArchiveWriter::with_overlap` from creation
    /// through every `append` and `finish` to the sink flush. With `keep`
    /// off the sink drops the bytes and does not pace: that is the
    /// compress-only reference the overlap share is computed against.
    pub fn write(
        &mut self,
        threads: usize,
        tracer: &Arc<Tracer>,
        op: u64,
        keep: bool,
    ) -> Result<WriteOut, String> {
        let name = if keep {
            "archive.write"
        } else {
            "archive.write_null"
        };
        let bps = if keep { self.link_bps } else { None };
        let buf = std::mem::take(&mut self.spare);
        let cpu0 = host::process_cpu_s();
        let root = tracer.begin(name, 0, op);
        let parent = root.id;
        let t0 = Instant::now();
        let sink = Sink::new(buf, keep, bps, Arc::clone(tracer), parent, op);
        let mut w = ArchiveWriter::with_overlap(sink, self.cfg.clone(), threads).map_err(err)?;
        let mut at = 0;
        for &len in &self.parts {
            let s = tracer.begin("archive.append", parent, op);
            w.append(&self.input[at..at + len]).map_err(err)?;
            tracer.end(s);
            at += len;
        }
        let s = tracer.begin("archive.finish", parent, op);
        let mut sink = w.finish().map_err(err)?;
        tracer.end(s);
        sink.flush().map_err(err)?;
        let wall_s = t0.elapsed().as_secs_f64();
        tracer.end(root);
        let cpu_s = host::process_cpu_s() - cpu0;
        let mut out = WriteOut {
            wall_s,
            cpu_s,
            sink_busy_ms: ms(sink.busy),
            sink_writes: sink.writes,
            sink_bytes: sink.bytes,
            identical: true,
        };
        self.spare = sink.into_bytes();
        if keep {
            out.identical = self.spare == self.golden;
        }
        Ok(out)
    }

    /// One restart read: `ArchiveReader::open` + `read_all_parallel`.
    pub fn read(&self, threads: usize, tracer: &Tracer, op: u64) -> Result<ReadOut, String> {
        let root = tracer.begin("archive.read", 0, op);
        let t0 = Instant::now();
        let s = tracer.begin("archive.open", root.id, op);
        let reader = ArchiveReader::open(&self.golden).map_err(err)?;
        tracer.end(s);
        let s = tracer.begin("archive.read_all_parallel", root.id, op);
        let plain = reader.read_all_parallel(threads).map_err(err)?;
        tracer.end(s);
        let wall_s = t0.elapsed().as_secs_f64();
        tracer.end(root);
        Ok(ReadOut {
            wall_s,
            identical: plain == self.input,
        })
    }

    /// Round `round`'s range reads. Returns each read's latency (ms) and
    /// how many returned wrong bytes or an error.
    pub fn ranges(
        &self,
        round: usize,
        tracer: &Tracer,
        op: u64,
    ) -> Result<(Vec<f64>, u64), String> {
        let reader = ArchiveReader::open(&self.golden).map_err(err)?;
        let count = self.per_round;
        let mut lat = Vec::with_capacity(count);
        let mut got = Vec::with_capacity(count);
        for k in 0..count {
            let (start, n) = self.range(round * count + k);
            let s = tracer.begin("archive.read_elements", 0, op + k as u64);
            let r = reader.read_elements(start, n);
            lat.push(ms(tracer.end(s)));
            got.push((start, n, r));
        }
        let wrong = got
            .iter()
            .filter(|(start, n, r)| {
                let at = *start as usize * 8;
                r.as_deref().ok() != self.input.get(at..at + n * 8)
            })
            .count() as u64;
        Ok((lat, wrong))
    }

    fn range(&self, k: usize) -> (u64, usize) {
        self.ranges[k % self.ranges.len()]
    }

    /// Mean chunks each of the first `performed` range reads decoded, and
    /// bytes decoded per byte returned.
    pub fn range_geometry(&self, performed: usize) -> Result<(f64, f64), String> {
        let reader = ArchiveReader::open(&self.golden).map_err(err)?;
        let mut starts = Vec::with_capacity(reader.chunk_count() + 1);
        let mut total = 0u64;
        for i in 0..reader.chunk_count() {
            starts.push(total);
            total += reader.entry(i).map_or(0, |e| e.elements);
        }
        starts.push(total);
        let (mut chunks, mut decoded, mut returned) = (0u64, 0u64, 0u64);
        for k in 0..performed {
            let (start, n) = self.range(k);
            let end = start + n as u64;
            for i in 0..reader.chunk_count() {
                if starts[i] < end && starts[i + 1] > start {
                    chunks += 1;
                    decoded += (starts[i + 1] - starts[i]) * 8;
                }
            }
            returned += n as u64 * 8;
        }
        let performed = performed.max(1) as f64;
        Ok((
            chunks as f64 / performed,
            decoded as f64 / returned.max(1) as f64,
        ))
    }

    /// p50 latency (ms) of `read_chunk_with` over every chunk, each checked
    /// against the input afterwards.
    pub fn read_chunk_pass(&self, tracer: &Tracer, op: u64) -> Result<(Vec<f64>, u64), String> {
        let reader = ArchiveReader::open(&self.golden).map_err(err)?;
        let mut scratch = DecodeScratch::new();
        let mut out = Vec::new();
        let (mut lat, mut wrong, mut at) = (Vec::new(), 0u64, 0usize);
        for i in 0..reader.chunk_count() {
            let s = tracer.begin("archive.read_chunk_with", 0, op);
            reader
                .read_chunk_with(i, &mut scratch, &mut out)
                .map_err(err)?;
            lat.push(ms(tracer.end(s)));
            if self.input.get(at..at + out.len()) != Some(&out[..]) {
                wrong += 1;
            }
            at += out.len();
        }
        Ok((lat, wrong))
    }

    /// [`STAGE_PASSES`] passes over the checkpoint's chunks through the
    /// public pipeline (`compress_bytes_with_stats` /
    /// `decompress_bytes_with_stats`) and, chunk by chunk, through the public
    /// stage functions, to split the backend's cost between the ID stream
    /// and the ISOBAR stream. Times and counts are per pass.
    pub fn stage_pass(&self, tracer: &Tracer, op: u64) -> Result<StagePass, String> {
        let cfg = &self.cfg;
        let compressor = PrimacyCompressor::try_new(cfg.clone()).map_err(err)?;
        let codec = cfg.codec.build();
        let (es, hb, lo_cols) = (cfg.element_size, cfg.hi_bytes, cfg.lo_bytes());
        let mut p = StagePass::default();
        let chunks = self.input.chunks(cfg.chunk_elements() * es);
        for chunk in (0..STAGE_PASSES).flat_map(|_| chunks.clone()) {
            let s = tracer.begin("pipeline.compress", 0, op);
            let (stream, stats) = compressor.compress_bytes_with_stats(chunk).map_err(err)?;
            p.compress_wall_ms += ms(tracer.end(s));
            for (k, (_, d)) in stats.timings.by_stage().iter().enumerate() {
                p.compress_ms[k] += ms(*d);
            }
            p.own_index_chunks += stats.own_index_chunks as u64;
            p.compressible_bytes += stats.isobar_compressible_fraction * chunk.len() as f64;
            p.bytes += chunk.len() as f64;

            let s = tracer.begin("pipeline.decompress", 0, op);
            let (plain, stats) = compressor
                .decompress_bytes_with_stats(&stream)
                .map_err(err)?;
            p.decompress_wall_ms += ms(tracer.end(s));
            for (k, (_, d)) in stats.timings.by_stage().iter().enumerate() {
                p.decompress_ms[k] += ms(*d);
            }
            if plain != chunk {
                p.wrong += 1;
            }

            // The same chunk through the stage functions; a fresh scratch,
            // as each `compress_bytes_with_stats` call starts with one.
            let mut scratch = CodecScratch::new();
            let n = chunk.len() / es;
            let (mut hi, lo) = split_hi_lo(chunk, es, hb).map_err(err)?;
            let freq = FreqTable::from_hi_matrix(&hi, hb);
            let map = IdMap::from_freq(&freq, hb).map_err(err)?;
            map.encode_hi(&mut hi).map_err(err)?;
            let hi_lin = match cfg.linearization {
                Linearization::Row => hi,
                Linearization::Column => to_columns(&hi, n, hb),
            };
            let s = tracer.begin("codecs.deflate.hi", 0, op);
            let hi_comp = codec.compress_with(&hi_lin, &mut scratch).map_err(err)?;
            p.hi_ms += ms(tracer.end(s));
            p.hi_in += hi_lin.len() as u64;
            p.hi_out += hi_comp.len() as u64;
            let report = isobar::analyze(&lo, n, lo_cols, &cfg.isobar);
            let (compressible, _) = isobar::partition(&lo, n, lo_cols, report.mask);
            if !compressible.is_empty() {
                let s = tracer.begin("codecs.deflate.lo", 0, op);
                let lo_comp = codec
                    .compress_with(&compressible, &mut scratch)
                    .map_err(err)?;
                p.lo_ms += ms(tracer.end(s));
                p.lo_in += compressible.len() as u64;
                p.lo_out += lo_comp.len() as u64;
            }
            // The container CRC-32 the pipeline books under its deflate stage.
            let s = tracer.begin("codecs.deflate.crc", 0, op);
            std::hint::black_box(crc32(std::hint::black_box(chunk)));
            p.crc_ms += ms(tracer.end(s));
        }
        // Ratios (bytes in over bytes out, compressible over all) hold as
        // summed; times and the chunk count become per pass.
        let n = STAGE_PASSES as f64;
        for t in p.compress_ms.iter_mut().chain(&mut p.decompress_ms) {
            *t /= n;
        }
        for t in [
            &mut p.compress_wall_ms,
            &mut p.decompress_wall_ms,
            &mut p.hi_ms,
            &mut p.lo_ms,
            &mut p.crc_ms,
        ] {
            *t /= n;
        }
        p.own_index_chunks /= STAGE_PASSES as u64;
        Ok(p)
    }
}

/// Totals of one [`Checkpoint::stage_pass`]; stage arrays are in
/// [`STAGES`] order.
#[derive(Default, Clone)]
pub struct StagePass {
    pub compress_ms: [f64; 6],
    pub decompress_ms: [f64; 6],
    pub compress_wall_ms: f64,
    pub decompress_wall_ms: f64,
    pub own_index_chunks: u64,
    pub compressible_bytes: f64,
    pub bytes: f64,
    pub hi_ms: f64,
    pub lo_ms: f64,
    pub crc_ms: f64,
    pub hi_in: u64,
    pub hi_out: u64,
    pub lo_in: u64,
    pub lo_out: u64,
    pub wrong: u64,
}

impl StagePass {
    /// Index of `stage` in [`STAGES`].
    pub fn stage(name: &str) -> usize {
        STAGES
            .iter()
            .position(|s| *s == name)
            .expect("stage name from primacy_core::STAGES")
    }
}

/// Seeded `(start, count)` element ranges over `elements` doubles stored in
/// `chunk`-element chunks, [`RANGE_ROUNDS`] rounds' worth. Range `i` reads
/// chunk `i % chunks`, and every fourth pass over the chunks straddles each
/// chunk's edge. A round reads whole periods of four passes, so every round
/// reads the chunks — and the datasets in them — in the same proportions
/// whatever the seed. Three reads in four decode one chunk and one in four
/// decodes two, so p50 lies among the one-chunk reads and p95 among the
/// two-chunk ones, not on the edge between them.
fn seeded_ranges(elements: u64, chunk: u64, seed: u64) -> Vec<(u64, usize)> {
    let mut rng = Rng::seed_from_u64(crate::workload::mix(seed, 0x7261_6e67_6573));
    let chunks = elements.div_ceil(chunk) as usize;
    let period = 4 * chunks;
    let per_round = period * RANGES_PER_ROUND.div_ceil(period);
    (0..per_round * RANGE_ROUNDS)
        .map(|i| {
            let lo = (i % chunks) as u64 * chunk;
            let hi = (lo + chunk).min(elements);
            if (i / chunks) % 4 == 3 && chunks > 1 {
                // The chunk's upper edge; the last chunk's lower one.
                let edge = if hi < elements { hi } else { lo };
                let start = edge - (rng.gen_range(1..=4096usize) as u64).min(edge);
                let end = (edge + rng.gen_range(1..=4096usize) as u64).min(elements);
                (start, (end - start) as usize)
            } else {
                let start = lo + rng.gen_range(0..(hi - lo) as usize) as u64;
                let count = rng.gen_range(1..=8192usize).min((hi - start) as usize);
                (start, count)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Data};
    use primacy_datagen::DatasetId;

    fn small() -> Checkpoint {
        let (input, parts) = generate(&Data::Structured(&[DatasetId::GtsPhiL], 1 << 20), 7);
        Checkpoint::build(input, parts, None, 7, 2).unwrap()
    }

    #[test]
    fn ranges_stay_in_bounds_and_some_straddle_edges() {
        let (elements, chunk) = (1_000_000u64, 393_216u64);
        let r = seeded_ranges(elements, chunk, 3);
        assert_eq!(r, seeded_ranges(elements, chunk, 3));
        assert!(r.iter().all(|&(s, n)| n >= 1 && s + n as u64 <= elements));
        let straddling = r
            .iter()
            .filter(|&&(s, n)| s / chunk != (s + n as u64 - 1) / chunk)
            .count();
        // Three chunks: a period is twelve reads, and a round four periods.
        assert_eq!(r.len(), 48 * RANGE_ROUNDS);
        assert_eq!(straddling, r.len() / 4);
        // Every chunk is read about as often as every other.
        let mut per_chunk = [0usize; 3];
        for &(s, n) in &r {
            for c in s / chunk..=(s + n as u64 - 1) / chunk {
                per_chunk[c as usize] += 1;
            }
        }
        assert!(per_chunk.iter().all(|&n| n >= r.len() / 3), "{per_chunk:?}");
    }

    /// The layer-sum check: the stage times `compress_bytes_with_stats` and
    /// `decompress_bytes_with_stats` report must cover the call's wall
    /// within 10 %, for compress and for decompress. Other tests run on the
    /// same cores, and a thread preempted between stages widens the wall, so
    /// the best of three passes is held to the bound.
    #[test]
    fn stage_times_sum_to_the_call_wall() {
        let ckpt = small();
        let (mut compress, mut decompress) = (0f64, 0f64);
        for _ in 0..3 {
            let p = ckpt.stage_pass(&Tracer::new(), 0).unwrap();
            assert_eq!(p.wrong, 0);
            let c: f64 = p.compress_ms.iter().sum();
            let d: f64 = p.decompress_ms.iter().sum();
            assert!(c <= p.compress_wall_ms && d <= p.decompress_wall_ms);
            // freq has no decode work.
            assert_eq!(p.decompress_ms[StagePass::stage("freq")], 0.0);
            compress = compress.max(c / p.compress_wall_ms);
            decompress = decompress.max(d / p.decompress_wall_ms);
        }
        assert!(compress >= 0.9, "compress stages cover {compress:.3}");
        assert!(decompress >= 0.9, "decompress stages cover {decompress:.3}");
    }

    #[test]
    fn phases_check_their_outputs() {
        let mut ckpt = small();
        let tracer = Arc::new(Tracer::new());
        let w = ckpt.write(2, &tracer, 1, true).unwrap();
        assert!(w.identical && w.sink_bytes == ckpt.golden.len() as u64);
        assert!(ckpt.read(2, &tracer, 2).unwrap().identical);
        let (lat, wrong) = ckpt.ranges(1, &tracer, 3).unwrap();
        assert_eq!((lat.len(), wrong), (ckpt.per_round, 0));
        let (lat, wrong) = ckpt.read_chunk_pass(&tracer, 4).unwrap();
        assert_eq!((lat.len(), wrong), (3, 0));
        let (per_read, amp) = ckpt.range_geometry(30).unwrap();
        assert!((1.0..=2.0).contains(&per_read) && amp > 1.0);
        // A corrupted golden copy must be caught, not timed.
        ckpt.golden[100] ^= 1;
        assert!(!ckpt.write(2, &tracer, 5, true).unwrap().identical);
    }
}
