//! Sequential streaming access to archives: an [`std::io::Read`] adapter
//! that decompresses chunk by chunk.
//!
//! Restart reads (§IV-D) usually consume a checkpoint front to back but
//! into a consumer that expects a `Read` — an MPI-IO shim, a deserializer, a
//! hash. [`ElementReader`] exposes a decompressed archive that way while
//! holding at most one chunk of plaintext in memory, preserving the
//! low-memory in-situ property of the chunked design (§II-B).
#![warn(clippy::indexing_slicing)]

use crate::archive::ArchiveReader;
use crate::error::Result;
use std::io::Read;

/// Sequential reader over an archive's decompressed bytes.
///
/// Decompresses lazily, one chunk at a time; integrity failures surface as
/// `std::io::Error` of kind `InvalidData`.
pub struct ElementReader<'a> {
    archive: &'a ArchiveReader<'a>,
    /// Next chunk index to decode.
    next_chunk: usize,
    /// Plaintext of the current chunk.
    buffer: Vec<u8>,
    /// Read offset within `buffer`.
    offset: usize,
    /// Decode working memory reused across chunks, so steady-state refills
    /// perform no allocations.
    scratch: crate::pipeline::DecodeScratch,
}

impl<'a> ElementReader<'a> {
    /// Start reading from the first element.
    pub fn new(archive: &'a ArchiveReader<'a>) -> Self {
        Self {
            archive,
            next_chunk: 0,
            buffer: Vec::new(),
            offset: 0,
            scratch: crate::pipeline::DecodeScratch::new(),
        }
    }

    /// Bytes of plaintext not yet consumed (cheap: derived from the
    /// directory, no decompression).
    pub fn remaining_bytes(&self) -> u64 {
        let es = self.archive.element_size() as u64;
        let decoded: u64 = (0..self.next_chunk)
            .map(|i| self.archive.entry(i).map(|e| e.elements).unwrap_or(0))
            .sum();
        // Saturating: the count is informational, and a hostile directory
        // must not be able to turn it into an overflow panic.
        self.archive
            .element_count()
            .saturating_mul(es)
            .saturating_sub(decoded.saturating_mul(es))
            .saturating_add((self.buffer.len() - self.offset) as u64)
    }

    fn refill(&mut self) -> Result<bool> {
        if self.next_chunk >= self.archive.chunk_count() {
            return Ok(false);
        }
        self.archive
            .read_chunk_with(self.next_chunk, &mut self.scratch, &mut self.buffer)?;
        self.offset = 0;
        self.next_chunk += 1;
        Ok(true)
    }
}

impl Read for ElementReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.offset >= self.buffer.len() {
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return Ok(0), // EOF
                Err(e) => return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
            }
        }
        let avail = self.buffer.get(self.offset..).unwrap_or(&[]);
        let n = buf.len().min(avail.len());
        if let (Some(dst), Some(src)) = (buf.get_mut(..n), avail.get(..n)) {
            dst.copy_from_slice(src);
        }
        self.offset = self.offset.saturating_add(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveWriter;
    use crate::config::PrimacyConfig;
    use std::io::Read;

    fn archive_of(values: &[f64]) -> Vec<u8> {
        let cfg = PrimacyConfig {
            chunk_bytes: 4096,
            ..Default::default()
        };
        let mut w = ArchiveWriter::new(Vec::new(), cfg).unwrap();
        w.append_f64(values).unwrap();
        w.finish().unwrap()
    }

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.01).cos() * 7.0).collect()
    }

    #[test]
    fn read_to_end_matches_source() {
        let values = sample(3000);
        let archive = archive_of(&values);
        let r = ArchiveReader::open(&archive).unwrap();
        let mut reader = ElementReader::new(&r);
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        let expected: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn small_reads_cross_chunk_boundaries() {
        let values = sample(2000); // ~4 chunks of 512 doubles
        let archive = archive_of(&values);
        let r = ArchiveReader::open(&archive).unwrap();
        let mut reader = ElementReader::new(&r);
        let expected: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut out = Vec::new();
        let mut buf = [0u8; 333]; // deliberately misaligned with chunks
        loop {
            let n = reader.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn remaining_bytes_counts_down() {
        let values = sample(1024);
        let archive = archive_of(&values);
        let r = ArchiveReader::open(&archive).unwrap();
        let mut reader = ElementReader::new(&r);
        assert_eq!(reader.remaining_bytes(), 1024 * 8);
        let mut buf = [0u8; 100];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(reader.remaining_bytes(), 1024 * 8 - 100);
    }

    #[test]
    fn empty_archive_reads_eof_immediately() {
        let cfg = PrimacyConfig::default();
        let archive = ArchiveWriter::new(Vec::new(), cfg)
            .unwrap()
            .finish()
            .unwrap();
        let r = ArchiveReader::open(&archive).unwrap();
        let mut reader = ElementReader::new(&r);
        let mut buf = [0u8; 8];
        assert_eq!(reader.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn corruption_surfaces_as_io_error() {
        let values = sample(2000);
        let mut archive = archive_of(&values);
        archive[30] ^= 0x08; // first chunk payload
        if let Ok(r) = ArchiveReader::open(&archive) {
            let mut reader = ElementReader::new(&r);
            let mut out = Vec::new();
            let err = reader.read_to_end(&mut out).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }
}
