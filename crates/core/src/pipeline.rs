//! The end-to-end PRIMACY pipeline (Fig. 2 / Algorithm 1 of the paper).

use crate::config::{IndexPolicy, Linearization, PrimacyConfig};
use crate::error::{PrimacyError, Result};
use crate::format::{self, Header, Reader, FLAG_OWN_INDEX};
use crate::freq::FreqTable;
use crate::idmap::IdMap;
use crate::isobar;
use crate::linearize::to_columns;
use crate::par;
use crate::reassemble::{self, reassemble_into, Output, Sections};
use crate::split::split_hi_lo;
use crate::stats::{
    CompressionStats, StageTimings, STAGE_DEFLATE, STAGE_FREQ, STAGE_IDMAP, STAGE_ISOBAR,
    STAGE_LINEARIZE, STAGE_SPLIT,
};
use primacy_codecs::checksum::crc32;
use primacy_codecs::{read_array, write_varint, Codec, CodecScratch};
use primacy_trace as trace;
use std::time::{Duration, Instant};

/// Close one stage measurement: fold the elapsed time into the matching
/// `StageTimings` field and record it as a trace span under the canonical
/// stage name. One `Instant::now` serves both consumers.
#[inline]
fn stage(total: &mut Duration, name: &'static str, since: Instant) {
    let dt = since.elapsed();
    *total += dt;
    trace::span_duration(name, dt);
}

/// The stream container's CRC-32 of `plain`, with the time it took. The CRC
/// is integrity-trailer work of the backend/container stage, exactly like
/// the Adler-32 the zlib container already counts under codec time — so it
/// accrues to the deflate stage, with a dedicated span so the breakdown
/// stays visible.
fn container_crc(plain: &[u8]) -> (u32, Duration) {
    let t = Instant::now();
    let crc = crc32(plain);
    let dt = t.elapsed();
    trace::span_duration(STAGE_DEFLATE, dt);
    trace::span_duration("container.crc", dt);
    (crc, dt)
}

/// A configured PRIMACY compressor/decompressor.
///
/// The struct owns its backend codec instance and is immutable after
/// construction, so one instance can be shared across threads (`&self`
/// methods only).
pub struct PrimacyCompressor {
    config: PrimacyConfig,
    codec: Box<dyn Codec>,
}

impl PrimacyCompressor {
    /// Build a compressor, panicking on invalid configuration (use
    /// [`PrimacyCompressor::try_new`] to handle errors).
    pub fn new(config: PrimacyConfig) -> Self {
        // lint: allow(panic) -- documented panicking constructor; try_new is the fallible path
        Self::try_new(config).expect("invalid PRIMACY configuration")
    }

    /// Build a compressor, validating the configuration.
    pub fn try_new(config: PrimacyConfig) -> Result<Self> {
        config.validate()?;
        let codec = config.codec.build();
        Ok(Self { config, codec })
    }

    /// The active configuration.
    pub fn config(&self) -> &PrimacyConfig {
        &self.config
    }

    /// Compress a slice of doubles. Requires `element_size == 8`.
    pub fn compress_f64(&self, values: &[f64]) -> Result<Vec<u8>> {
        if self.config.element_size != 8 {
            return Err(PrimacyError::InvalidInput(
                "compress_f64 requires an 8-byte element configuration",
            ));
        }
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.compress_bytes(&bytes)
    }

    /// Decompress into doubles. Requires the stream's `element_size == 8`.
    pub fn decompress_f64(&self, input: &[u8]) -> Result<Vec<f64>> {
        let bytes = self.decompress_bytes(input)?;
        if bytes.len() % 8 != 0 {
            return Err(PrimacyError::Format(
                "stream is not a whole number of doubles",
            ));
        }
        Ok(f64s_from_le(&bytes))
    }

    /// Compress raw element bytes (length must be a multiple of
    /// `element_size`).
    pub fn compress_bytes(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.compress_bytes_with_stats(input).map(|(out, _)| out)
    }

    /// Compress and report per-stage statistics.
    pub fn compress_bytes_with_stats(&self, input: &[u8]) -> Result<(Vec<u8>, CompressionStats)> {
        let mut out = self.start_stream(input)?;
        // One scratch for the whole stream: after the first chunk the codec's
        // hash-chain and token buffers are reused, so steady-state chunks
        // allocate nothing in the tokenizer, and the index a chunk leaves in
        // it is the one its successor may reuse.
        let mut scratch = EncodeScratch::new();
        let mut timings = StageTimings::default();
        let mut chunks = 0usize;
        let mut own_index_chunks = 0usize;
        let mut weighted_alpha2 = 0f64;

        for chunk in input.chunks(self.chunk_bytes()) {
            let pre = self.compress_chunk(chunk, chunks > 0, &mut scratch, &mut out)?;
            timings.add(&pre.timings);
            chunks += 1;
            if pre.own_index {
                own_index_chunks += 1;
            }
            weighted_alpha2 += pre.alpha2 * chunk.len() as f64;
        }

        let (crc, dt) = container_crc(input);
        out.extend_from_slice(&crc.to_le_bytes());
        timings.codec += dt;
        let stats = CompressionStats {
            original_bytes: input.len(),
            compressed_bytes: out.len(),
            chunks,
            own_index_chunks,
            isobar_compressible_fraction: if input.is_empty() {
                0.0
            } else {
                weighted_alpha2 / input.len() as f64
            },
            timings,
        };
        Ok((out, stats))
    }

    /// Compress chunks on `threads` worker threads (chunk sections are
    /// independent, so this parallelizes embarrassingly — the paper runs the
    /// preconditioner on every compute node's own data the same way).
    /// Sections stream into the output in chunk order as they complete.
    ///
    /// Under [`IndexPolicy::Reuse`] each chunk falls back to its own index,
    /// since cross-chunk reuse would serialize the workers.
    pub fn compress_bytes_parallel(&self, input: &[u8], threads: usize) -> Result<Vec<u8>> {
        let mut out = self.start_stream(input)?;
        par::ordered_map(
            input.chunks(self.chunk_bytes()),
            threads,
            EncodeScratch::new,
            |scratch, _, chunk| {
                let mut section = Vec::new();
                self.compress_chunk(chunk, false, scratch, &mut section)?;
                Ok(section)
            },
            |section| {
                out.extend_from_slice(&section);
                Ok(())
            },
        )?;
        out.extend_from_slice(&container_crc(input).0.to_le_bytes());
        Ok(out)
    }

    /// Bytes per chunk: whole elements, at least one, never more than the
    /// configured `chunk_bytes` unless that is smaller than one element.
    pub(crate) fn chunk_bytes(&self) -> usize {
        self.config.chunk_elements() * self.config.element_size
    }

    /// Check that `input` is element-aligned and start its stream container
    /// with the header.
    fn start_stream(&self, input: &[u8]) -> Result<Vec<u8>> {
        if !input.len().is_multiple_of(self.config.element_size) {
            return Err(PrimacyError::InvalidInput(
                "input length is not a multiple of the element size",
            ));
        }
        let mut out = Vec::with_capacity(input.len() / 2 + 64);
        let total_elements = (input.len() / self.config.element_size) as u64;
        format::write_header(&mut out, &Header::new(&self.config, total_elements));
        Ok(out)
    }

    /// Compress one chunk into its section on the tail of `out`: the
    /// encoder ([`precondition`]), the backend codec on its two streams, and
    /// the section emit. `may_reuse_index` is [`precondition`]'s. Returns the
    /// chunk as the encoder left it, with the codec time added to its
    /// timings.
    pub(crate) fn compress_chunk(
        &self,
        chunk: &[u8],
        may_reuse_index: bool,
        scratch: &mut EncodeScratch,
        out: &mut Vec<u8>,
    ) -> Result<Preconditioned> {
        let n = chunk.len() / self.config.element_size;
        let section_start = out.len();
        let mut pre = precondition(&self.config, chunk, may_reuse_index, scratch)?;

        // Backend compression of the ID bytes and the compressible lo
        // columns (§II-E).
        let mut deflate = |stream: &[u8]| {
            let t = Instant::now();
            let comp = if stream.is_empty() {
                Ok(Vec::new())
            } else {
                self.codec.compress_with(stream, &mut scratch.codec)
            };
            stage(&mut pre.timings.codec, STAGE_DEFLATE, t);
            comp
        };
        let hi_comp = deflate(&pre.ids)?;
        let lo_comp = deflate(&pre.compressible)?;

        // Emit the chunk section.
        let t = Instant::now();
        write_varint(out, n as u64);
        let flags = if pre.own_index { FLAG_OWN_INDEX } else { 0 };
        out.push(flags);
        if pre.own_index {
            write_varint(out, scratch.map.len() as u64);
            scratch.map.serialize(out);
        }
        write_varint(out, hi_comp.len() as u64);
        out.extend_from_slice(&hi_comp);
        out.extend_from_slice(&pre.mask.to_le_bytes());
        write_varint(out, lo_comp.len() as u64);
        out.extend_from_slice(&lo_comp);
        out.extend_from_slice(&pre.raw);
        trace::span_duration("container.emit", t.elapsed());

        trace::counter("chunk.compress", 1);
        if pre.own_index {
            trace::counter("chunk.own_index", 1);
        }
        trace::counter("compress.bytes_in", chunk.len() as u64);
        let section_len = (out.len() - section_start) as u64;
        trace::counter("compress.bytes_out", section_len);
        trace::observe("chunk.section_bytes", section_len);

        Ok(pre)
    }

    /// Decompress a PRIMACY stream produced by any configuration (the
    /// stream header, not `self.config`, governs layout and codec).
    pub fn decompress_bytes(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.decompress_bytes_with_stats(input).map(|(out, _)| out)
    }

    /// Decompress and report per-stage statistics (the decompression-side
    /// mirror of [`PrimacyCompressor::compress_bytes_with_stats`]).
    pub fn decompress_bytes_with_stats(&self, input: &[u8]) -> Result<(Vec<u8>, CompressionStats)> {
        if input.len() < 13 {
            return Err(PrimacyError::Format("stream shorter than minimum"));
        }
        let (header, pos) = format::read_header(input)?;
        // The stream header, not this instance's config, names the codec.
        let codec: Box<dyn Codec> = header.codec.build();
        let body_end = input.len() - 4;
        if pos > body_end {
            return Err(PrimacyError::Format("stream shorter than header + crc"));
        }
        // Clamp the pre-allocation: total_elements is attacker-controlled in
        // a corrupt stream, and over-claims are caught chunk by chunk anyway.
        let claimed = header
            .total_elements
            .saturating_mul(header.element_size as u64)
            .min(64 * 1024 * 1024) as usize;
        let mut out = Vec::with_capacity(claimed);
        let mut reader = Reader::new(input, pos, body_end);
        // One scratch for the whole stream; the map a chunk leaves in it is
        // the one its successor may reuse. Each chunk decodes straight onto
        // the tail of `out`.
        let mut scratch = DecodeScratch::new();
        let mut decoded_elements = 0u64;
        let mut timings = StageTimings::default();
        let mut chunks = 0usize;
        let mut own_index_chunks = 0usize;
        while decoded_elements < header.total_elements {
            if reader.remaining() == 0 {
                return Err(PrimacyError::Format("stream ends before all elements"));
            }
            let (own_index, chunk) = decompress_chunk_into(
                &mut reader,
                &header,
                codec.as_ref(),
                chunks > 0,
                &mut scratch,
                &mut timings,
                Output::Append(&mut out),
            )?;
            let n = (chunk.len() / header.element_size) as u64;
            let after = decoded_elements
                .checked_add(n)
                .ok_or(PrimacyError::Format("chunk element count out of range"))?;
            if after > header.total_elements {
                return Err(PrimacyError::Format("chunk element count out of range"));
            }
            decoded_elements = after;
            chunks += 1;
            if own_index {
                own_index_chunks += 1;
            }
        }
        if reader.remaining() != 0 {
            return Err(PrimacyError::Format("trailing bytes after final chunk"));
        }
        let stored =
            u32::from_le_bytes(read_array(input, body_end).map_err(|_| PrimacyError::Truncated)?);
        let (actual, dt) = container_crc(&out);
        timings.codec += dt;
        if stored != actual {
            return Err(PrimacyError::Codec(
                primacy_codecs::CodecError::ChecksumMismatch {
                    expected: stored,
                    actual,
                },
            ));
        }
        let stats = CompressionStats {
            original_bytes: out.len(),
            compressed_bytes: input.len(),
            chunks,
            own_index_chunks,
            isobar_compressible_fraction: 0.0,
            timings,
        };
        Ok((out, stats))
    }
}

/// Little-endian doubles from whole 8-byte elements of `bytes`.
pub(crate) fn f64s_from_le(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            let mut a = [0u8; 8];
            a.copy_from_slice(c);
            f64::from_le_bytes(a)
        })
        .collect()
}

/// Reusable working memory of the chunk encoder ([`precondition`]), the
/// mirror of [`DecodeScratch`]: the backend codec's encode state, the index
/// in effect and the frequencies it was built from. The map is rebuilt in
/// place, so a warm rebuild touches only the slots of the chunk's own
/// sequences.
pub struct EncodeScratch {
    /// Backend codec encode state (hash chains, token buffers etc.).
    pub(crate) codec: CodecScratch,
    /// The index in effect: the one the last chunk was mapped through.
    pub(crate) map: IdMap,
    /// The frequencies `map` was built from; `None` before the first chunk.
    freq: Option<FreqTable>,
}

impl EncodeScratch {
    /// An empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self {
            codec: CodecScratch::new(),
            map: IdMap::placeholder(),
            freq: None,
        }
    }

    /// The index in effect: the one the last [`precondition`] call mapped
    /// its chunk through.
    pub fn map(&self) -> &IdMap {
        &self.map
    }
}

impl Default for EncodeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// One chunk as the preconditioner hands it to the backend codec: the
/// sections [`crate::reassemble::Sections`] borrows on decode, plus what the
/// encoder decided and how long its stages took.
#[derive(Debug)]
pub struct Preconditioned {
    /// The ID stream: `n × hi_bytes` bytes in the configured linearization.
    pub ids: Vec<u8>,
    /// The ISOBAR mask: bit `c` set ⇔ lo column `c` is in `compressible`.
    pub mask: u16,
    /// The compressible lo columns, `n` bytes each, in ascending column
    /// order.
    pub compressible: Vec<u8>,
    /// The raw lo columns, `n` bytes each, in ascending column order.
    pub raw: Vec<u8>,
    /// Whether the chunk was mapped through an index built from its own
    /// frequencies (and so carries it), rather than the previous chunk's.
    pub own_index: bool,
    /// ISOBAR's compressible fraction of the lo columns (the model's α₂).
    pub alpha2: f64,
    /// Wall time of the split, freq, idmap, linearize and isobar stages.
    pub timings: StageTimings,
}

/// The PRIMACY chunk encoder (Algorithm 1, §II-B–§II-G): split, frequency
/// analysis, the index decision, ID mapping, linearization and ISOBAR, each
/// booked under its stage. The one implementation of the sequence; the
/// stream, the archive, the model's calibration and the bench binaries all
/// run it.
///
/// The chunk reuses the index in `scratch` instead of building its own only
/// if `may_reuse_index` is set, the policy is [`IndexPolicy::Reuse`], its
/// frequencies correlate with those the index was built from at or above
/// the threshold, and the index covers every sequence of the chunk. The
/// rule mirrors the decoder's: the stream sets `may_reuse_index` for every
/// chunk after its first; the parallel stream and the archive never do, so
/// a chunk never borrows the index of whichever chunk its scratch encoded
/// before. Either way the index in effect is left in `scratch`.
pub fn precondition(
    cfg: &PrimacyConfig,
    chunk: &[u8],
    may_reuse_index: bool,
    scratch: &mut EncodeScratch,
) -> Result<Preconditioned> {
    cfg.validate()?;
    let (hb, lo_cols) = (cfg.hi_bytes, cfg.lo_bytes());
    let n = chunk.len() / cfg.element_size;
    let mut timings = StageTimings::default();

    let t = Instant::now();
    let (mut hi, lo) = split_hi_lo(chunk, cfg.element_size, hb)?;
    stage(&mut timings.split, STAGE_SPLIT, t);

    // Frequency analysis + index decision (§II-C, §II-F).
    let t = Instant::now();
    let freq = FreqTable::from_hi_matrix(&hi, hb);
    let reuse = match (cfg.index_policy, &scratch.freq) {
        (
            IndexPolicy::Reuse {
                correlation_threshold,
            },
            Some(prev),
        ) => {
            // A scratch last used at another `hi_bytes` counted another
            // domain; its index cannot fit.
            may_reuse_index
                && prev.counts().len() == freq.counts().len()
                && prev.correlation(&freq) >= correlation_threshold
                && scratch.map.covers(&hi)
        }
        _ => false,
    };
    if !reuse {
        scratch.map.load(hb, freq.ranked())?;
        scratch.freq = Some(freq);
    }
    stage(&mut timings.frequency_analysis, STAGE_FREQ, t);

    // ID mapping (§II-C).
    let t = Instant::now();
    scratch.map.encode_hi(&mut hi)?;
    stage(&mut timings.id_mapping, STAGE_IDMAP, t);

    // Linearization (§II-D).
    let t = Instant::now();
    let ids = match cfg.linearization {
        Linearization::Row => hi,
        Linearization::Column => to_columns(&hi, n, hb),
    };
    stage(&mut timings.linearization, STAGE_LINEARIZE, t);

    // ISOBAR on the mantissa bytes (§II-G).
    let t = Instant::now();
    let report = isobar::analyze(&lo, n, lo_cols, &cfg.isobar);
    let (compressible, raw) = isobar::partition(&lo, n, lo_cols, report.mask);
    stage(&mut timings.isobar, STAGE_ISOBAR, t);

    Ok(Preconditioned {
        ids,
        mask: report.mask,
        compressible,
        raw,
        own_index: !reuse,
        alpha2: report.compressible_fraction(),
        timings,
    })
}

/// Reusable working memory of the chunk decoder ([`decompress_chunk_into`]).
/// Holds the backend codec's decode state, the index in effect, and the two
/// inflated streams the fused reassembly pass ([`crate::reassemble`]) reads;
/// that pass keeps its tile buffers on the stack and writes each element
/// straight into the caller's output. A warm scratch makes steady-state
/// decodes allocation-free (the counting-allocator test in
/// `crates/core/tests/read_alloc_count.rs` enforces this).
pub struct DecodeScratch {
    /// Backend codec decode state (deflate Huffman tables etc.).
    pub(crate) codec: CodecScratch,
    /// The index in effect: reloaded in O(k) from each chunk that carries
    /// its own, without touching the full domain table.
    pub(crate) map: IdMap,
    /// Inflated ID stream, in stream (possibly column) order.
    pub(crate) hi_lin: Vec<u8>,
    /// Inflated compressible lo columns.
    pub(crate) compressible: Vec<u8>,
}

impl DecodeScratch {
    /// An empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self {
            codec: CodecScratch::new(),
            map: IdMap::placeholder(),
            hi_lin: Vec::new(),
            compressible: Vec::new(),
        }
    }
}

impl Default for DecodeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Decode one chunk section from `reader` into `out`, reusing all working
/// memory from `scratch` and adding each stage's wall time to `timings`. The
/// one parser of the section layout, for both containers. Returns whether
/// the chunk carried its own index, and the chunk's bytes in `out`.
///
/// A chunk without its own index decodes through the map the previous chunk
/// left in `scratch` only if `may_reuse_index` is set; otherwise it fails as
/// reusing a missing index. The stream sets it for every chunk after its
/// first. The archive never does, so an archive chunk cannot borrow the index
/// of whichever chunk the scratch decoded before.
///
/// An [`Output::Fill`] slice of another size than the chunk fails as
/// `Format("chunk decoded to unexpected size")`, before anything is written.
pub(crate) fn decompress_chunk_into<'o>(
    reader: &mut Reader<'_>,
    header: &Header,
    codec: &dyn Codec,
    may_reuse_index: bool,
    scratch: &mut DecodeScratch,
    timings: &mut StageTimings,
    out: Output<'o>,
) -> Result<(bool, &'o [u8])> {
    let lo_cols = header.element_size - header.hi_bytes;
    let n = reader.varint()? as usize;
    if n == 0 {
        return Err(PrimacyError::Format("empty chunk section"));
    }
    let own_index = reader.byte()? & FLAG_OWN_INDEX != 0;
    // Loading the index is ID-decode work: it is booked under `idmap` with
    // the pass's mapping step.
    let mut index_time = Duration::ZERO;
    if own_index {
        let k = reader.varint()? as usize;
        if k > 1 << (8 * header.hi_bytes) {
            return Err(PrimacyError::Format("index larger than sequence domain"));
        }
        // k <= 65536 and hi_bytes <= 2, so this product cannot overflow.
        let bytes = reader.bytes(k * header.hi_bytes)?;
        let t = Instant::now();
        scratch.map.reload(bytes, k, header.hi_bytes)?;
        index_time = t.elapsed();
    } else if !may_reuse_index {
        return Err(PrimacyError::Format("chunk reuses a missing index"));
    }
    let hi_len = reader.varint()? as usize;
    let hi_comp = reader.bytes(hi_len)?;
    let mask = reader.u16_le()?;
    if usize::from(mask.count_ones() as u16) > lo_cols || (mask >> lo_cols) != 0 {
        return Err(PrimacyError::Format("isobar mask wider than matrix"));
    }
    let lo_len = reader.varint()? as usize;
    let lo_comp = reader.bytes(lo_len)?;
    // Exact after the mask-width guard above; saturation documents the bound.
    let incompressible_cols = lo_cols.saturating_sub(mask.count_ones() as usize);
    // `n` comes straight from an attacker-controllable varint; every product
    // involving it must be checked or an over-claim wraps into a panic.
    let raw_len = n
        .checked_mul(incompressible_cols)
        .ok_or(PrimacyError::Truncated)?;
    let incompressible = reader.bytes(raw_len)?;

    let t = Instant::now();
    codec.decompress_into(hi_comp, &mut scratch.codec, &mut scratch.hi_lin)?;
    stage(&mut timings.codec, STAGE_DEFLATE, t);
    if n.checked_mul(header.hi_bytes) != Some(scratch.hi_lin.len()) {
        return Err(PrimacyError::Format("hi section has wrong size"));
    }
    let t = Instant::now();
    let lo = if lo_len == 0 {
        scratch.compressible.clear();
        Ok(())
    } else {
        codec.decompress_into(lo_comp, &mut scratch.codec, &mut scratch.compressible)
    };
    stage(&mut timings.codec, STAGE_DEFLATE, t);
    let sized = lo.map_err(PrimacyError::from).and_then(|()| {
        if n.checked_mul(mask.count_ones() as usize) != Some(scratch.compressible.len()) {
            return Err(PrimacyError::Format("lo section has wrong size"));
        }
        match &out {
            Output::Fill(s) if n.checked_mul(header.element_size) != Some(s.len()) => {
                Err(PrimacyError::Format("chunk decoded to unexpected size"))
            }
            _ => Ok(()),
        }
    });
    if let Err(e) = sized {
        // Errors follow the section's order: a bad ID is reported ahead of
        // these faults, though the IDs are mapped only in the pass below.
        reassemble::check_ids(header, &scratch.map, &scratch.hi_lin)?;
        return Err(e);
    }

    let sections = Sections {
        ids: &scratch.hi_lin,
        mask,
        compressible: &scratch.compressible,
        raw: incompressible,
    };
    let (mut steps, chunk): (StageTimings, &'o [u8]) = match out {
        Output::Append(v) => {
            let start = v.len();
            let steps = reassemble_into(header, &scratch.map, &sections, Output::Append(&mut *v))?;
            let v: &'o Vec<u8> = v;
            (steps, v.get(start..).unwrap_or_default())
        }
        Output::Fill(s) => {
            let steps = reassemble_into(header, &scratch.map, &sections, Output::Fill(&mut *s))?;
            let s: &'o [u8] = s;
            (steps, s)
        }
    };
    steps.id_mapping += index_time;
    for (name, dt) in [
        (STAGE_LINEARIZE, steps.linearization),
        (STAGE_IDMAP, steps.id_mapping),
        (STAGE_ISOBAR, steps.isobar),
        (STAGE_SPLIT, steps.split),
    ] {
        trace::span_duration(name, dt);
    }
    timings.add(&steps);
    trace::counter("chunk.decompress", 1);
    trace::counter("decompress.bytes_out", chunk.len() as u64);
    Ok((own_index, chunk))
}

#[cfg(test)]
// Config tweaks read more clearly as sequential assignments in tests.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use primacy_codecs::CodecKind;

    fn sample_values(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 1.0 + (i as f64 * 0.001).sin() * 0.5 + (i % 17) as f64 * 1e-9)
            .collect()
    }

    fn compressor() -> PrimacyCompressor {
        PrimacyCompressor::new(PrimacyConfig::default())
    }

    #[test]
    fn roundtrip_f64() {
        let values = sample_values(50_000);
        let c = compressor();
        let comp = c.compress_f64(&values).unwrap();
        let back = c.decompress_f64(&comp).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn roundtrip_empty() {
        let c = compressor();
        let comp = c.compress_f64(&[]).unwrap();
        assert!(c.decompress_f64(&comp).unwrap().is_empty());
    }

    #[test]
    fn roundtrip_single_value() {
        let c = compressor();
        let comp = c.compress_f64(&[42.42]).unwrap();
        assert_eq!(c.decompress_f64(&comp).unwrap(), vec![42.42]);
    }

    #[test]
    fn roundtrip_multi_chunk() {
        let mut cfg = PrimacyConfig::default();
        cfg.chunk_bytes = 4096; // force many chunks
        let c = PrimacyCompressor::new(cfg);
        let values = sample_values(10_000);
        let comp = c.compress_f64(&values).unwrap();
        assert_eq!(c.decompress_f64(&comp).unwrap(), values);
    }

    #[test]
    fn roundtrip_special_values() {
        let c = compressor();
        let values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
        ];
        let comp = c.compress_f64(&values).unwrap();
        let back = c.decompress_f64(&comp).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn roundtrip_every_codec_backend() {
        let values = sample_values(5_000);
        for kind in CodecKind::ALL {
            let mut cfg = PrimacyConfig::default();
            cfg.codec = kind;
            let c = PrimacyCompressor::new(cfg);
            let comp = c.compress_f64(&values).unwrap();
            assert_eq!(c.decompress_f64(&comp).unwrap(), values, "backend {kind}");
        }
    }

    #[test]
    fn roundtrip_row_linearization() {
        let mut cfg = PrimacyConfig::default();
        cfg.linearization = Linearization::Row;
        let c = PrimacyCompressor::new(cfg);
        let values = sample_values(8_000);
        let comp = c.compress_f64(&values).unwrap();
        assert_eq!(c.decompress_f64(&comp).unwrap(), values);
    }

    #[test]
    fn roundtrip_isobar_disabled() {
        let mut cfg = PrimacyConfig::default();
        cfg.isobar.enabled = false;
        let c = PrimacyCompressor::new(cfg);
        let values = sample_values(8_000);
        let comp = c.compress_f64(&values).unwrap();
        assert_eq!(c.decompress_f64(&comp).unwrap(), values);
    }

    #[test]
    fn roundtrip_f32_elements() {
        let cfg = PrimacyConfig::f32();
        let c = PrimacyCompressor::new(cfg);
        let bytes: Vec<u8> = (0..10_000u32)
            .flat_map(|i| (1.5f32 + (i as f32 * 0.01).sin()).to_le_bytes())
            .collect();
        let comp = c.compress_bytes(&bytes).unwrap();
        assert_eq!(c.decompress_bytes(&comp).unwrap(), bytes);
    }

    #[test]
    fn index_reuse_reduces_index_count() {
        let mut cfg = PrimacyConfig::default();
        cfg.chunk_bytes = 8192;
        cfg.index_policy = IndexPolicy::Reuse {
            correlation_threshold: 0.5,
        };
        let c = PrimacyCompressor::new(cfg);
        // Statistically stationary data: later chunks should reuse.
        let values = sample_values(50_000);
        let (comp, stats) = c
            .compress_bytes_with_stats(
                &values
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
            )
            .unwrap();
        assert!(stats.chunks > 10);
        assert!(
            stats.own_index_chunks < stats.chunks,
            "no chunk reused an index ({}/{})",
            stats.own_index_chunks,
            stats.chunks
        );
        assert_eq!(c.decompress_f64(&comp).unwrap(), values);
        // The decode side counts the chunks that carried their own index.
        let (_, decoded) = c.decompress_bytes_with_stats(&comp).unwrap();
        assert_eq!(decoded.chunks, stats.chunks);
        assert_eq!(decoded.own_index_chunks, stats.own_index_chunks);
    }

    #[test]
    fn stats_are_plausible() {
        let values = sample_values(100_000);
        let c = compressor();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (comp, stats) = c.compress_bytes_with_stats(&bytes).unwrap();
        assert_eq!(stats.original_bytes, 800_000);
        assert_eq!(stats.compressed_bytes, comp.len());
        assert!(stats.ratio() > 1.0, "ratio {}", stats.ratio());
        assert!(stats.timings.total().as_nanos() > 0);
        assert!((0.0..=1.0).contains(&stats.isobar_compressible_fraction));
    }

    #[test]
    fn decompress_stats_are_plausible() {
        let values = sample_values(50_000);
        let c = compressor();
        let comp = c.compress_f64(&values).unwrap();
        let (out, stats) = c.decompress_bytes_with_stats(&comp).unwrap();
        assert_eq!(out.len(), values.len() * 8);
        assert_eq!(stats.original_bytes, out.len());
        assert_eq!(stats.compressed_bytes, comp.len());
        assert!(stats.chunks >= 1);
        assert!(stats.timings.codec.as_nanos() > 0);
        // Ratio from the decode side matches the encode side.
        assert!((stats.ratio() - out.len() as f64 / comp.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn parallel_compression_matches_serial_output_content() {
        let values = sample_values(60_000);
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut cfg = PrimacyConfig::default();
        cfg.chunk_bytes = 32 * 1024;
        let c = PrimacyCompressor::new(cfg);
        let par = c.compress_bytes_parallel(&bytes, 4).unwrap();
        let ser = c.compress_bytes(&bytes).unwrap();
        // Same format and content (PerChunk policy makes them identical).
        assert_eq!(par, ser);
        assert_eq!(c.decompress_bytes(&par).unwrap(), bytes);
    }

    #[test]
    fn rejects_ragged_input() {
        let c = compressor();
        assert!(c.compress_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn rejects_corrupted_stream() {
        let values = sample_values(10_000);
        let c = compressor();
        let comp = c.compress_f64(&values).unwrap();
        for &pos in &[5usize, comp.len() / 2, comp.len() - 2] {
            let mut bad = comp.clone();
            bad[pos] ^= 0x40;
            assert!(c.decompress_bytes(&bad).is_err(), "flip at {pos} accepted");
        }
    }

    #[test]
    fn rejects_truncated_stream() {
        let values = sample_values(2_000);
        let c = compressor();
        let comp = c.compress_f64(&values).unwrap();
        for cut in [1usize, 4, comp.len() / 2] {
            assert!(c.decompress_bytes(&comp[..comp.len() - cut]).is_err());
        }
    }

    #[test]
    fn cross_config_decompression() {
        // A stream written with BWT backend must decompress through a
        // compressor configured for zlib (header governs).
        let values = sample_values(3_000);
        let mut cfg = PrimacyConfig::default();
        cfg.codec = CodecKind::Bwt;
        let writer = PrimacyCompressor::new(cfg);
        let comp = writer.compress_f64(&values).unwrap();
        let reader = compressor();
        assert_eq!(reader.decompress_f64(&comp).unwrap(), values);
    }

    /// Errors follow section order: a chunk with a bad ID and a bad lo
    /// section or output size reports the bad ID; with every ID mapped, each
    /// other fault shows as itself.
    #[test]
    fn a_bad_id_is_reported_before_later_section_faults() {
        let header = Header::new(&PrimacyConfig::default(), 4);
        let codec = header.codec.build();
        // Four elements: an index of one sequence, one compressible lo
        // column and five raw ones.
        let section = |ids: &[u8], lo_comp: &[u8]| {
            let mut s = Vec::new();
            write_varint(&mut s, 4);
            s.push(format::FLAG_OWN_INDEX);
            write_varint(&mut s, 1);
            s.extend_from_slice(&[0x3F, 0xF0]);
            let hi = codec.compress(ids).unwrap();
            write_varint(&mut s, hi.len() as u64);
            s.extend_from_slice(&hi);
            s.extend_from_slice(&1u16.to_le_bytes());
            write_varint(&mut s, lo_comp.len() as u64);
            s.extend_from_slice(lo_comp);
            s.extend_from_slice(&[0u8; 20]);
            s
        };
        let decode = |section: &[u8], out: Output<'_>| {
            let mut reader = Reader::new(section, 0, section.len());
            let mut scratch = DecodeScratch::new();
            let mut timings = StageTimings::default();
            decompress_chunk_into(
                &mut reader,
                &header,
                codec.as_ref(),
                false,
                &mut scratch,
                &mut timings,
                out,
            )
            .map(|(own_index, chunk)| (own_index, chunk.len()))
        };
        // Column order: the hi ID bytes, then the lo ID bytes; row 1 has ID 1.
        let (bad_ids, good_ids) = ([0u8, 0, 0, 0, 0, 1, 0, 0], [0u8; 8]);
        let good_lo = codec.compress(&[1, 2, 3, 4]).unwrap();
        let short_lo = codec.compress(&[1, 2, 3]).unwrap();
        let broken_lo = [0xFFu8; 6];
        let bad_id = Err(PrimacyError::Format("ID out of index range"));
        for lo in [&good_lo[..], &short_lo, &broken_lo] {
            let s = section(&bad_ids, lo);
            assert_eq!(decode(&s, Output::Append(&mut Vec::new())), bad_id);
            assert_eq!(decode(&s, Output::Fill(&mut [0u8; 32])), bad_id);
            assert_eq!(decode(&s, Output::Fill(&mut [0u8; 24])), bad_id);
        }
        let s = section(&good_ids, &good_lo);
        assert_eq!(decode(&s, Output::Append(&mut Vec::new())), Ok((true, 32)));
        assert_eq!(decode(&s, Output::Fill(&mut [0u8; 32])), Ok((true, 32)));
        assert_eq!(
            decode(&s, Output::Fill(&mut [0u8; 24])),
            Err(PrimacyError::Format("chunk decoded to unexpected size"))
        );
        assert_eq!(
            decode(&section(&good_ids, &short_lo), Output::Fill(&mut [0u8; 24])),
            Err(PrimacyError::Format("lo section has wrong size"))
        );
        assert!(matches!(
            decode(
                &section(&good_ids, &broken_lo),
                Output::Fill(&mut [0u8; 24])
            ),
            Err(PrimacyError::Codec(_))
        ));
    }

    #[test]
    fn compression_beats_backend_alone_on_hard_data() {
        // Narrow-range doubles with random mantissas: the PRIMACY transform
        // must compress better than handing the raw bytes to the codec.
        let mut x = 777u64;
        let values: Vec<f64> = (0..200_000)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                1.0 + (x >> 12) as f64 / (1u64 << 52) as f64
            })
            .collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let c = compressor();
        let primacy_size = c.compress_bytes(&bytes).unwrap().len();
        let zlib_size = CodecKind::Zlib.build().compress(&bytes).unwrap().len();
        assert!(
            primacy_size < zlib_size,
            "primacy {primacy_size} vs zlib {zlib_size}"
        );
    }
}
