//! Seekable PRIMACY archives: random access to compressed chunks.
//!
//! The paper deploys PRIMACY for checkpoint/restart and WORM (write once,
//! read many) analysis data (§IV-D). Analysis readers rarely want the whole
//! variable — they want a time slice or a subdomain. The streaming container
//! ([`crate::format`]) must be decoded front to back; this module adds an
//! archive format with a chunk directory so any chunk (and therefore any
//! element range) can be decompressed independently:
//!
//! ```text
//! "PRMA" | version u8 | element_size u8 | hi_bytes u8 | linearization u8 |
//! codec u8 | chunk sections…(each with its own index) |
//! directory: (u64le offset, u64le n_elements, u32le crc)* |
//! footer: u64le directory_offset, u32le chunk_count,
//!         u32le crc32(directory), "PRMA"
//! ```
//!
//! Every chunk carries its own ID index (reuse would reintroduce the serial
//! dependency random access is meant to remove) and its own CRC-32, so a
//! partial read is integrity-checked without touching the rest of the file.
//! The layout prefix is the stream's, under [`format::ARCHIVE_MAGIC`], and
//! the chunk sections go through the stream's decoder with index reuse off.
#![warn(clippy::indexing_slicing)]

use crate::config::PrimacyConfig;
use crate::error::{PrimacyError, Result};
use crate::format::{self, Header, Reader};
use crate::par;
use crate::pipeline::{self, DecodeScratch, EncodeScratch, PrimacyCompressor};
use crate::reassemble::Output;
use crate::stats::StageTimings;
use primacy_codecs::checksum::crc32;
use primacy_codecs::{read_array, Codec};
use primacy_trace as trace;
use std::io::Write;
use std::sync::Arc;

/// Fixed footer size: offset + count + crc + magic.
const FOOTER_LEN: usize = 8 + 4 + 4 + 4;
/// Decompression-bomb bound: a chunk section of `S` stored bytes may not
/// claim to decode to more than `S * MAX_CHUNK_EXPANSION` plaintext bytes.
/// Adaptive coding tops out near 500:1 on constant data; 65536:1 leaves two
/// orders of margin while keeping a forged directory from forcing huge
/// allocations out of a tiny file.
pub const MAX_CHUNK_EXPANSION: u64 = 1 << 16;

/// One directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the chunk section from the start of the archive.
    pub offset: u64,
    /// Elements stored in this chunk.
    pub elements: u64,
    /// CRC-32 of the chunk's *plaintext* bytes.
    pub crc: u32,
}

/// One compressed, self-contained chunk section on its way to the sink.
struct Section {
    bytes: Vec<u8>,
    elements: u64,
    crc: u32,
}

/// Compress one chunk into its section. Random access requires a
/// self-contained index per chunk, so index reuse is off; that is also what
/// makes the overlapped writer byte-identical to the sequential one — no
/// state crosses chunk boundaries in either mode.
fn compress_section(
    compressor: &PrimacyCompressor,
    scratch: &mut EncodeScratch,
    chunk: &[u8],
) -> Result<Section> {
    let _span = trace::span("archive.write_chunk");
    let mut bytes = Vec::with_capacity(chunk.len() / 2 + 64);
    compressor.compress_chunk(chunk, false, scratch, &mut bytes)?;
    Ok(Section {
        bytes,
        elements: (chunk.len() / compressor.config().element_size) as u64,
        crc: crc32(chunk),
    })
}

/// The sink side of a writer: the sink, the serialized directory of the
/// sections it has taken so far, and the write cursor.
struct SinkState<W> {
    sink: W,
    directory: Vec<u8>,
    offset: u64,
}

impl<W: Write> SinkState<W> {
    /// Write the archive's layout prefix; the first section follows it.
    fn start(mut sink: W, cfg: &PrimacyConfig) -> Result<Self> {
        let mut header = Vec::with_capacity(format::LAYOUT_LEN);
        format::write_layout(&mut header, format::ARCHIVE_MAGIC, &Header::new(cfg, 0));
        write_all(&mut sink, &header)?;
        Ok(Self {
            sink,
            directory: Vec::new(),
            offset: header.len() as u64,
        })
    }

    /// Append the next section in chunk order and add its directory entry.
    fn write_section(&mut self, section: Section) -> Result<()> {
        {
            let _span = trace::span("archive.sink_write");
            write_all(&mut self.sink, &section.bytes)?;
        }
        self.directory.extend(self.offset.to_le_bytes());
        self.directory.extend(section.elements.to_le_bytes());
        self.directory.extend(section.crc.to_le_bytes());
        self.offset = self.offset.saturating_add(section.bytes.len() as u64);
        trace::counter("archive.chunks_written", 1);
        trace::observe("archive.section_bytes", section.bytes.len() as u64);
        Ok(())
    }

    /// Write the directory and footer after the last section and hand the
    /// sink back.
    fn finish(mut self) -> Result<W> {
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&self.offset.to_le_bytes());
        footer.extend_from_slice(&((self.directory.len() / 20) as u32).to_le_bytes());
        footer.extend_from_slice(&crc32(&self.directory).to_le_bytes());
        footer.extend_from_slice(format::ARCHIVE_MAGIC);
        write_all(&mut self.sink, &self.directory)?;
        write_all(&mut self.sink, &footer)?;
        Ok(self.sink)
    }
}

/// `Write::write_all`, with a failure reported as the archive's typed error.
fn write_all<W: Write>(sink: &mut W, bytes: &[u8]) -> Result<()> {
    sink.write_all(bytes)
        .map_err(|_| PrimacyError::Format("archive sink write failed"))
}

/// Which pipeline an [`ArchiveWriter`] runs its chunks through.
enum Mode<W> {
    /// Compress and write each chunk on the caller's thread. The scratch is
    /// reused across every chunk, so steady-state appends allocate nothing
    /// in the encoder.
    Sequential(SinkState<W>, Box<EncodeScratch>),
    /// Compress workers feed the sink through the chunk-parallel engine.
    Overlapped(par::Streaming<Vec<u8>, SinkState<W>>),
}

/// Incremental archive writer over any [`Write`] sink.
///
/// Data appended with [`ArchiveWriter::append`] is buffered until a full
/// chunk accumulates, then compressed and flushed; [`ArchiveWriter::finish`]
/// flushes the tail and writes the directory.
///
/// [`ArchiveWriter::new`] runs bulk-synchronous: each chunk is compressed and
/// flushed on the calling thread before the next begins.
/// [`ArchiveWriter::with_overlap`] instead pipelines the archive: a pool of
/// compress workers runs chunk *n+1* while chunk *n* is still being written.
/// Both modes compress and write through the same two functions, and the
/// overlapped writer takes sections strictly in chunk order, so the two
/// produce byte-identical archives.
///
/// ```
/// use primacy_core::{ArchiveReader, ArchiveWriter, PrimacyConfig};
///
/// let values: Vec<f64> = (0..10_000).map(|i| (i as f64).sqrt()).collect();
/// let mut writer = ArchiveWriter::new(Vec::new(), PrimacyConfig::default())?;
/// writer.append_f64(&values)?;
/// let archive = writer.finish()?;
///
/// let reader = ArchiveReader::open(&archive)?;
/// assert_eq!(reader.read_elements_f64(5_000, 10)?, &values[5_000..5_010]);
/// # Ok::<(), primacy_core::PrimacyError>(())
/// ```
pub struct ArchiveWriter<W: Write> {
    compressor: Arc<PrimacyCompressor>,
    pending: Vec<u8>,
    flushed_elements: u64,
    mode: Mode<W>,
}

impl<W: Write> ArchiveWriter<W> {
    /// Start a bulk-synchronous archive, writing the header immediately.
    pub fn new(sink: W, config: PrimacyConfig) -> Result<Self> {
        Self::start(sink, config, |_, sink| {
            Mode::Sequential(sink, Box::default())
        })
    }

    /// Start an overlapped archive: `threads` compress workers feed the sink
    /// through the crate's chunk-parallel engine, so compression of chunk
    /// *n+1* proceeds while chunk *n* is still being written. Output is
    /// byte-identical to [`ArchiveWriter::new`].
    ///
    /// Backpressure: at most `2 × threads` raw chunks wait for a worker and
    /// `2 × threads` compressed sections wait for the sink; a slow sink
    /// stalls [`Self::append`] instead of buffering the archive in memory.
    ///
    /// If a worker or the sink panics or fails, the failure surfaces as a
    /// typed error from [`Self::append`] or [`Self::finish`], never a
    /// deadlock.
    pub fn with_overlap(sink: W, config: PrimacyConfig, threads: usize) -> Result<Self>
    where
        W: Send + 'static,
    {
        Self::start(sink, config, |comp, sink| {
            Mode::Overlapped(par::Streaming::spawn(
                threads,
                sink,
                EncodeScratch::new,
                move |scratch, _, chunk: Vec<u8>| compress_section(&comp, scratch, &chunk),
                SinkState::write_section,
            ))
        })
    }

    /// Validate `config`, write the header and set up the pipeline `mode`
    /// builds.
    fn start(
        sink: W,
        config: PrimacyConfig,
        mode: impl FnOnce(Arc<PrimacyCompressor>, SinkState<W>) -> Mode<W>,
    ) -> Result<Self> {
        let compressor = Arc::new(PrimacyCompressor::try_new(config)?);
        let sink = SinkState::start(sink, compressor.config())?;
        Ok(Self {
            mode: mode(Arc::clone(&compressor), sink),
            compressor,
            pending: Vec::new(),
            flushed_elements: 0,
        })
    }

    /// Append raw element bytes (any length; chunk alignment is handled
    /// internally, but the total at `finish` must be element-aligned).
    pub fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.pending.extend_from_slice(bytes);
        let chunk_bytes = self.compressor.chunk_bytes();
        while self.pending.len() >= chunk_bytes {
            let rest = self.pending.split_off(chunk_bytes);
            let chunk = std::mem::replace(&mut self.pending, rest);
            self.dispatch_chunk(chunk)?;
        }
        Ok(())
    }

    /// Append doubles (requires an 8-byte element configuration).
    pub fn append_f64(&mut self, values: &[f64]) -> Result<()> {
        if self.compressor.config().element_size != 8 {
            return Err(PrimacyError::InvalidInput(
                "append_f64 requires an 8-byte element configuration",
            ));
        }
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.append(&bytes)
    }

    /// Route one full chunk into the active pipeline.
    fn dispatch_chunk(&mut self, chunk: Vec<u8>) -> Result<()> {
        debug_assert!(!chunk.is_empty());
        let es = self.compressor.config().element_size;
        if !chunk.len().is_multiple_of(es) {
            return Err(PrimacyError::InvalidInput(
                "archive total length is not a multiple of the element size",
            ));
        }
        let elements = (chunk.len() / es) as u64;
        match &mut self.mode {
            Mode::Sequential(sink, scratch) => {
                sink.write_section(compress_section(&self.compressor, scratch, &chunk)?)?;
            }
            // A refused push means the workers stopped after a failure;
            // `finish` reports the root cause.
            Mode::Overlapped(stream) => stream.push(chunk)?,
        }
        self.flushed_elements = self.flushed_elements.saturating_add(elements);
        Ok(())
    }

    /// Total elements appended so far (flushed + pending).
    pub fn elements_written(&self) -> u64 {
        let es = self.compressor.config().element_size;
        self.flushed_elements
            .saturating_add((self.pending.len() / es) as u64)
    }

    /// Flush the tail chunk, write the directory and footer, and return the
    /// sink.
    ///
    /// In overlapped mode this waits for every worker and the sink (a
    /// panicked one becomes a typed error) and records the
    /// `archive.hidden_pct` trace counter: the share (0–100) of the shorter
    /// of per-worker compress time and sink-write time that ran hidden
    /// behind the other.
    pub fn finish(mut self) -> Result<W> {
        let tail = std::mem::take(&mut self.pending);
        let tail_result = if tail.is_empty() {
            Ok(())
        } else {
            self.dispatch_chunk(tail)
        };
        match self.mode {
            Mode::Sequential(sink, _) => {
                tail_result?;
                sink.finish()
            }
            Mode::Overlapped(stream) => {
                let (sink, busy) = stream.finish()?;
                tail_result?;
                trace::counter("archive.hidden_pct", busy.hidden_pct());
                sink.finish()
            }
        }
    }
}

impl<W: Write> Write for ArchiveWriter<W> {
    /// Streaming convenience: `write` is [`ArchiveWriter::append`]. The
    /// element-alignment requirement still applies at [`ArchiveWriter::finish`].
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.append(buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        // Chunks flush on their own boundaries; nothing sensible to force
        // here without splitting a chunk.
        Ok(())
    }
}

/// Random-access reader over an archive held in memory (or mapped).
pub struct ArchiveReader<'a> {
    data: &'a [u8],
    header: Header,
    codec: Box<dyn Codec>,
    directory: Vec<ChunkEntry>,
    /// Cumulative element start index per chunk.
    starts: Vec<u64>,
}

impl<'a> ArchiveReader<'a> {
    /// Parse the footer and directory.
    ///
    /// Every length and offset field in the footer and directory is
    /// attacker-controlled; each one is validated against the actual buffer
    /// with checked arithmetic before it is used to slice or allocate.
    pub fn open(data: &'a [u8]) -> Result<Self> {
        if data.len() < format::LAYOUT_LEN + FOOTER_LEN {
            return Err(PrimacyError::Format("not a PRIMACY archive"));
        }
        let layout = format::read_layout(data, format::ARCHIVE_MAGIC)?;
        let footer_at = data.len() - FOOTER_LEN;
        let footer_magic: [u8; 4] =
            read_array(data, footer_at + 16).map_err(|_| PrimacyError::Truncated)?;
        if footer_magic != *format::ARCHIVE_MAGIC {
            return Err(PrimacyError::Format("archive footer magic missing"));
        }
        let directory_offset =
            u64::from_le_bytes(read_array(data, footer_at).map_err(|_| PrimacyError::Truncated)?)
                as usize;
        let chunk_count = u32::from_le_bytes(
            read_array(data, footer_at + 8).map_err(|_| PrimacyError::Truncated)?,
        ) as usize;
        let dir_crc = u32::from_le_bytes(
            read_array(data, footer_at + 12).map_err(|_| PrimacyError::Truncated)?,
        );
        let dir_end = footer_at;
        let dir_len = chunk_count.checked_mul(20).ok_or(PrimacyError::Truncated)?;
        if directory_offset.checked_add(dir_len) != Some(dir_end) {
            return Err(PrimacyError::Truncated);
        }
        let dir = data
            .get(directory_offset..dir_end)
            .ok_or(PrimacyError::Truncated)?;
        if crc32(dir) != dir_crc {
            return Err(PrimacyError::Format("archive directory checksum mismatch"));
        }
        let mut directory = Vec::with_capacity(chunk_count);
        let mut starts = Vec::with_capacity(chunk_count);
        let mut total = 0u64;
        for rec in dir.chunks_exact(20) {
            let entry = ChunkEntry {
                offset: u64::from_le_bytes(
                    read_array(rec, 0).map_err(|_| PrimacyError::Truncated)?,
                ),
                elements: u64::from_le_bytes(
                    read_array(rec, 8).map_err(|_| PrimacyError::Truncated)?,
                ),
                crc: u32::from_le_bytes(read_array(rec, 16).map_err(|_| PrimacyError::Truncated)?),
            };
            if entry.offset as usize >= directory_offset || entry.elements == 0 {
                return Err(PrimacyError::Format("archive directory entry invalid"));
            }
            // Offsets must be strictly increasing: chunk i's section ends
            // where chunk i+1 begins.
            if let Some(prev) = directory.last() {
                let prev: &ChunkEntry = prev;
                if entry.offset <= prev.offset {
                    return Err(PrimacyError::Format("archive directory not monotonic"));
                }
            }
            starts.push(total);
            total = total
                .checked_add(entry.elements)
                .ok_or(PrimacyError::Truncated)?;
            directory.push(entry);
        }
        // Decompression-bomb guard: every chunk's claimed plaintext size must
        // be plausible against the stored bytes backing it.
        for (k, entry) in directory.iter().enumerate() {
            let section_end = directory
                .get(k + 1)
                .map(|e| e.offset)
                .unwrap_or(directory_offset as u64);
            let section_len = section_end.saturating_sub(entry.offset);
            let plain = entry.elements.saturating_mul(layout.element_size as u64);
            if plain > section_len.saturating_mul(MAX_CHUNK_EXPANSION) {
                return Err(PrimacyError::Format(
                    "archive chunk claims implausible expansion",
                ));
            }
        }
        Ok(Self {
            data,
            header: Header {
                total_elements: total,
                ..layout
            },
            codec: layout.codec.build(),
            directory,
            starts,
        })
    }

    /// Number of chunks in the archive.
    pub fn chunk_count(&self) -> usize {
        self.directory.len()
    }

    /// Total elements stored.
    pub fn element_count(&self) -> u64 {
        self.header.total_elements
    }

    /// Bytes per element.
    pub fn element_size(&self) -> usize {
        self.header.element_size
    }

    /// Directory entry for chunk `i`.
    pub fn entry(&self, i: usize) -> Option<&ChunkEntry> {
        self.directory.get(i)
    }

    /// Decompress chunk `i`, verifying its CRC.
    pub fn read_chunk(&self, i: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.read_chunk_with(i, &mut DecodeScratch::new(), &mut out)?;
        Ok(out)
    }

    /// [`ArchiveReader::read_chunk`] into a caller-owned buffer (cleared
    /// first, capacity kept), reusing all decode working memory from
    /// `scratch`. A warm call — same or smaller chunk than the scratch has
    /// already seen — performs no allocations, which the counting-allocator
    /// test in `crates/core/tests/read_alloc_count.rs` enforces. The chunk is
    /// decoded from its own index only, whatever `scratch` decoded before.
    pub fn read_chunk_with(
        &self,
        i: usize,
        scratch: &mut DecodeScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        out.clear();
        self.decode_chunk(i, scratch, Output::Append(out))
    }

    /// Decode chunk `i` into `out` and verify its size and CRC.
    fn decode_chunk(&self, i: usize, scratch: &mut DecodeScratch, out: Output<'_>) -> Result<()> {
        let _span = trace::span("archive.read_chunk");
        trace::counter("archive.chunks_read", 1);
        let entry = self
            .directory
            .get(i)
            .ok_or(PrimacyError::Format("chunk index out of range"))?;
        let end = self
            .directory
            .get(i + 1)
            .map(|e| e.offset as usize)
            .unwrap_or_else(|| self.data.len() - FOOTER_LEN - self.directory.len() * 20);
        let section = self
            .data
            .get(entry.offset as usize..end)
            .ok_or(PrimacyError::Truncated)?;
        let mut reader = Reader::new(section, 0, section.len());
        let (_, plain) = pipeline::decompress_chunk_into(
            &mut reader,
            &self.header,
            self.codec.as_ref(),
            false,
            scratch,
            &mut StageTimings::default(),
            out,
        )?;
        let expected = entry
            .elements
            .checked_mul(self.header.element_size as u64)
            .ok_or(PrimacyError::Truncated)?;
        if plain.len() as u64 != expected {
            return Err(PrimacyError::Format("chunk decoded to unexpected size"));
        }
        let actual = crc32(plain);
        if actual != entry.crc {
            return Err(PrimacyError::Codec(
                primacy_codecs::CodecError::ChecksumMismatch {
                    expected: entry.crc,
                    actual,
                },
            ));
        }
        Ok(())
    }

    /// Read an arbitrary element range, decompressing only the chunks it
    /// touches.
    pub fn read_elements(&self, start: u64, count: usize) -> Result<Vec<u8>> {
        let range_end = start
            .checked_add(count as u64)
            .ok_or(PrimacyError::InvalidInput("element range out of bounds"))?;
        if range_end > self.header.total_elements {
            return Err(PrimacyError::InvalidInput("element range out of bounds"));
        }
        if count == 0 {
            return Ok(Vec::new());
        }
        let es = self.header.element_size;
        let mut out = Vec::with_capacity(count.saturating_mul(es).min(1 << 24));
        // Binary search for the first chunk containing `start`. `starts[0]`
        // is always 0, so a miss never lands before index 1.
        let mut i = match self.starts.binary_search(&start) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        let mut remaining = count;
        let mut cursor = start;
        // One scratch + one plaintext buffer reused across every chunk the
        // range touches.
        let mut scratch = DecodeScratch::new();
        let mut chunk = Vec::new();
        while remaining > 0 {
            let (chunk_start, chunk_elements) = match (self.starts.get(i), self.directory.get(i)) {
                (Some(&s), Some(e)) => (s, e.elements as usize),
                // Unreachable given the range check above; erring keeps the
                // walk panic-free even if the directory were inconsistent.
                _ => return Err(PrimacyError::Truncated),
            };
            self.read_chunk_with(i, &mut scratch, &mut chunk)?;
            let skip = (cursor - chunk_start) as usize;
            let take = remaining.min(chunk_elements - skip);
            // `read_chunk` verified chunk.len() == elements * es, so both
            // products stay within the decoded buffer (saturation is exact).
            let section = chunk
                .get(skip.saturating_mul(es)..skip.saturating_add(take).saturating_mul(es))
                .ok_or(PrimacyError::Truncated)?;
            out.extend_from_slice(section);
            remaining -= take;
            cursor = cursor.saturating_add(take as u64);
            i += 1;
        }
        Ok(out)
    }

    /// Decompress the whole archive on `threads` worker threads. Chunks are
    /// fully independent (own index, own CRC), so this scales like the
    /// compression side — the restart-read analogue of compute nodes each
    /// decompressing their own checkpoint shard. Each worker decodes into
    /// its chunk's own slice of the output; if several chunks are bad, the
    /// error is that of the lowest one, as from [`Self::read_elements`].
    pub fn read_all_parallel(&self, threads: usize) -> Result<Vec<u8>> {
        let es = self.header.element_size;
        let total = self
            .header
            .total_elements
            .checked_mul(es as u64)
            .and_then(|t| usize::try_from(t).ok())
            .ok_or(PrimacyError::Truncated)?;
        let mut out = vec![0u8; total];
        // Carve the output into one contiguous slice per chunk. The per-entry
        // products sum to `total` (checked in `open`), so each split fits.
        let mut slices: Vec<&mut [u8]> = Vec::with_capacity(self.directory.len());
        let mut rest = out.as_mut_slice();
        for entry in &self.directory {
            // Entry products sum to `total` (checked above), so the
            // saturating product is exact.
            let (head, tail) = rest
                .split_at_mut_checked((entry.elements as usize).saturating_mul(es))
                .ok_or(PrimacyError::Truncated)?;
            slices.push(head);
            rest = tail;
        }
        par::ordered_map(
            slices.into_iter(),
            threads,
            // Decode state reused across every chunk a worker claims.
            DecodeScratch::new,
            |scratch, i, slot| self.decode_chunk(i, scratch, Output::Fill(slot)),
            |()| Ok(()),
        )?;
        Ok(out)
    }

    /// Read an element range as doubles.
    pub fn read_elements_f64(&self, start: u64, count: usize) -> Result<Vec<f64>> {
        if self.header.element_size != 8 {
            return Err(PrimacyError::InvalidInput(
                "read_elements_f64 requires 8-byte elements",
            ));
        }
        Ok(pipeline::f64s_from_le(&self.read_elements(start, count)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 2.0 + (i as f64 * 0.01).sin() + (i % 13) as f64 * 1e-8)
            .collect()
    }

    fn small_config() -> PrimacyConfig {
        PrimacyConfig {
            chunk_bytes: 4096, // 512 doubles per chunk
            ..Default::default()
        }
    }

    fn build_archive(values: &[f64]) -> Vec<u8> {
        let mut w = ArchiveWriter::new(Vec::new(), small_config()).unwrap();
        // Append in awkward sizes to exercise buffering.
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        for part in bytes.chunks(777) {
            w.append(part).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn full_readback_matches() {
        let values = sample_values(3000);
        let archive = build_archive(&values);
        let r = ArchiveReader::open(&archive).unwrap();
        assert_eq!(r.element_count(), 3000);
        assert_eq!(r.chunk_count(), 3000usize.div_ceil(512));
        let back = r.read_elements_f64(0, 3000).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn random_access_reads_match() {
        let values = sample_values(5000);
        let archive = build_archive(&values);
        let r = ArchiveReader::open(&archive).unwrap();
        for (start, count) in [
            (0u64, 1usize),
            (511, 2),
            (512, 512),
            (4999, 1),
            (1000, 3000),
        ] {
            let got = r.read_elements_f64(start, count).unwrap();
            assert_eq!(
                got,
                &values[start as usize..start as usize + count],
                "({start},{count})"
            );
        }
    }

    #[test]
    fn per_chunk_reads_are_independent() {
        let values = sample_values(2000);
        let archive = build_archive(&values);
        let r = ArchiveReader::open(&archive).unwrap();
        // Read the *last* chunk first; no prior state needed.
        let last = r.chunk_count() - 1;
        let chunk = r.read_chunk(last).unwrap();
        let chunk_values: Vec<f64> = chunk
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(chunk_values, &values[last * 512..]);
    }

    #[test]
    fn out_of_range_reads_rejected() {
        let values = sample_values(100);
        let archive = build_archive(&values);
        let r = ArchiveReader::open(&archive).unwrap();
        assert!(r.read_elements(50, 51).is_err());
        assert!(r.read_chunk(99).is_err());
    }

    #[test]
    fn empty_archive() {
        let w = ArchiveWriter::new(Vec::new(), small_config()).unwrap();
        let archive = w.finish().unwrap();
        let r = ArchiveReader::open(&archive).unwrap();
        assert_eq!(r.element_count(), 0);
        assert_eq!(r.chunk_count(), 0);
        assert!(r.read_elements(0, 0).unwrap().is_empty());
    }

    #[test]
    fn elements_written_tracks_pending() {
        let mut w = ArchiveWriter::new(Vec::new(), small_config()).unwrap();
        w.append_f64(&sample_values(100)).unwrap();
        assert_eq!(w.elements_written(), 100);
        w.append_f64(&sample_values(1000)).unwrap();
        assert_eq!(w.elements_written(), 1100);
    }

    #[test]
    fn corrupted_directory_detected() {
        let values = sample_values(1500);
        let mut archive = build_archive(&values);
        // Flip a byte inside the directory region (just before the footer).
        let n = archive.len();
        archive[n - FOOTER_LEN - 5] ^= 0xFF;
        assert!(ArchiveReader::open(&archive).is_err());
    }

    #[test]
    fn corrupted_chunk_detected_on_read() {
        let values = sample_values(1500);
        let mut archive = build_archive(&values);
        // Flip a byte in the middle of the first chunk's payload.
        archive[60] ^= 0x40;
        let r = ArchiveReader::open(&archive);
        // Directory still parses (it's at the end), but the chunk read must
        // fail its codec or CRC check.
        if let Ok(r) = r {
            assert!(r.read_chunk(0).is_err());
        }
    }

    #[test]
    fn misaligned_total_rejected_at_flush() {
        let mut w = ArchiveWriter::new(Vec::new(), small_config()).unwrap();
        w.append(&[1, 2, 3]).unwrap(); // 3 bytes: not a whole double
        assert!(w.finish().is_err());
    }

    #[test]
    fn ragged_tail_chunk_roundtrips() {
        // 1000 elements with 512-element chunks: tail of 488.
        let values = sample_values(1000);
        let archive = build_archive(&values);
        let r = ArchiveReader::open(&archive).unwrap();
        assert_eq!(r.chunk_count(), 2);
        assert_eq!(r.entry(1).unwrap().elements, 488);
        assert_eq!(r.read_elements_f64(512, 488).unwrap(), &values[512..]);
    }

    #[test]
    fn parallel_full_read_matches_serial() {
        let values = sample_values(4000);
        let archive = build_archive(&values);
        let r = ArchiveReader::open(&archive).unwrap();
        let serial = r.read_elements(0, 4000).unwrap();
        for threads in [1, 2, 8] {
            assert_eq!(r.read_all_parallel(threads).unwrap(), serial);
        }
    }

    #[test]
    fn parallel_read_surfaces_chunk_corruption() {
        let values = sample_values(4000);
        let mut archive = build_archive(&values);
        archive[40] ^= 0x10; // inside the first chunk section
        if let Ok(r) = ArchiveReader::open(&archive) {
            assert!(r.read_all_parallel(4).is_err());
        }
    }

    #[test]
    fn parallel_read_reports_the_lowest_bad_chunk() {
        let mut archive = build_archive(&sample_values(4000)); // 8 chunks
                                                               // Forge the directory CRCs of chunks 1 and 5, then fix up the
                                                               // directory checksum so the archive still opens.
        let footer = archive.len() - FOOTER_LEN;
        let dir = u64::from_le_bytes(archive[footer..footer + 8].try_into().unwrap()) as usize;
        for chunk in [1, 5] {
            archive[dir + 20 * chunk + 16] ^= 0xFF;
        }
        let dir_crc = crc32(&archive[dir..footer]);
        archive[footer + 12..footer + 16].copy_from_slice(&dir_crc.to_le_bytes());
        let r = ArchiveReader::open(&archive).unwrap();
        let expected = r.read_elements(0, 4000).unwrap_err();
        assert_eq!(expected, r.read_chunk(1).unwrap_err());
        assert_ne!(expected, r.read_chunk(5).unwrap_err());
        for threads in [1, 2, 7, 16] {
            for _ in 0..5 {
                assert_eq!(
                    r.read_all_parallel(threads).unwrap_err(),
                    expected,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn stripped_index_never_borrows_a_previous_chunks_map() {
        use std::io::Read as _;
        // Two identical halves give both chunks the same index, so a decoder
        // that lent chunk 0's map to chunk 1 would return the right bytes
        // and pass the CRC.
        let half = sample_values(512);
        let values: Vec<f64> = half.iter().chain(&half).copied().collect();
        let mut archive = build_archive(&values);
        let footer = archive.len() - FOOTER_LEN;
        let dir = u64::from_le_bytes(archive[footer..footer + 8].try_into().unwrap()) as usize;
        let chunk1 = u64::from_le_bytes(archive[dir + 20..dir + 28].try_into().unwrap()) as usize;
        // Clear chunk 1's own-index flag and cut its `varint k` and index
        // bytes; only the footer's directory offset moves, so the directory
        // and its CRC stay valid.
        let (_, n_len) = primacy_codecs::read_varint(&archive[chunk1..]).unwrap();
        let flags = chunk1 + n_len;
        assert_eq!(archive[flags], format::FLAG_OWN_INDEX);
        archive[flags] = 0;
        let (k, k_len) = primacy_codecs::read_varint(&archive[flags + 1..]).unwrap();
        let cut = k_len + 2 * k as usize;
        archive.drain(flags + 1..flags + 1 + cut);
        let footer = footer - cut;
        archive[footer..footer + 8].copy_from_slice(&((dir - cut) as u64).to_le_bytes());

        let r = ArchiveReader::open(&archive).unwrap();
        assert_eq!(r.read_elements_f64(0, 512).unwrap(), half);
        let expected = r.read_chunk(1).unwrap_err();
        assert_eq!(
            expected,
            PrimacyError::Format("chunk reuses a missing index")
        );
        assert_eq!(r.read_elements(0, 1024).unwrap_err(), expected);
        for threads in [1, 2] {
            let err = r.read_all_parallel(threads).unwrap_err();
            assert_eq!(err, expected, "threads={threads}");
        }
        let mut plain = Vec::new();
        let err = crate::stream::ElementReader::new(&r)
            .read_to_end(&mut plain)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn io_write_adapter_streams() {
        use std::io::Write as _;
        let values = sample_values(1500);
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut w = ArchiveWriter::new(Vec::new(), small_config()).unwrap();
        let mut cursor = &bytes[..];
        std::io::copy(&mut cursor, &mut w).unwrap();
        w.flush().unwrap();
        let archive = w.finish().unwrap();
        let r = ArchiveReader::open(&archive).unwrap();
        assert_eq!(r.read_elements_f64(0, 1500).unwrap(), values);
    }

    #[test]
    fn f32_archives_work() {
        let cfg = PrimacyConfig {
            chunk_bytes: 2048,
            ..PrimacyConfig::f32()
        };
        let values: Vec<f32> = (0..3000).map(|i| 1.0 + (i as f32 * 0.01).sin()).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut w = ArchiveWriter::new(Vec::new(), cfg).unwrap();
        w.append(&bytes).unwrap();
        let archive = w.finish().unwrap();
        let r = ArchiveReader::open(&archive).unwrap();
        assert_eq!(r.element_size(), 4);
        assert_eq!(r.element_count(), 3000);
        assert_eq!(r.read_elements(0, 3000).unwrap(), bytes);
        // f64 accessor must refuse.
        assert!(r.read_elements_f64(0, 1).is_err());
    }

    #[test]
    fn open_rejects_foreign_bytes() {
        assert!(ArchiveReader::open(b"not an archive at all").is_err());
        assert!(ArchiveReader::open(&[]).is_err());
        let values = sample_values(600);
        let mut archive = build_archive(&values);
        let n = archive.len();
        archive[n - 1] = b'X'; // footer magic
        assert!(ArchiveReader::open(&archive).is_err());
    }
}
