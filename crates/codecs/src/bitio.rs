//! LSB-first bit-level readers and writers.
//!
//! DEFLATE (RFC 1951) packs bits starting from the least-significant bit of
//! each byte; Huffman codes are stored with their own most-significant bit
//! first, which callers handle by bit-reversing the code before writing. The
//! BWT and FPZ codecs reuse the same convention so the whole crate shares one
//! bit-I/O implementation.

use crate::error::{CodecError, Result};

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits, lowest bit written first.
    bitbuf: u64,
    /// Number of valid bits in `bitbuf` (always < 8 after `flush_bytes`).
    bitcount: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer that appends to an existing buffer (byte-aligned).
    pub fn with_buffer(out: Vec<u8>) -> Self {
        Self {
            out,
            bitbuf: 0,
            bitcount: 0,
        }
    }

    /// Write the low `count` bits of `bits` (LSB first). `count` must be ≤ 57
    /// so the internal 64-bit buffer cannot overflow.
    ///
    /// Complete bytes are flushed as one little-endian `u64` store plus a
    /// length adjustment (libdeflate-style), not a per-byte push loop — the
    /// DEFLATE encoder emits merged code+extra-bit groups of up to 48 bits
    /// per call, so the flush is the hot path of the whole entropy coder.
    #[inline]
    pub fn write_bits(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 57);
        debug_assert!(count == 64 || bits < (1u64 << count));
        self.bitbuf |= bits << self.bitcount;
        self.bitcount += count;
        if self.bitcount >= 8 {
            self.flush_whole_bytes();
        }
    }

    /// Move every complete byte of `bitbuf` into `out` with a single wide
    /// store, leaving `bitcount < 8`.
    #[inline]
    fn flush_whole_bytes(&mut self) {
        let nbytes = (self.bitcount >> 3) as usize;
        let len = self.out.len();
        // One unconditional 8-byte append, then trim to the bytes that are
        // actually complete: the grow check is the only branch.
        self.out.extend_from_slice(&self.bitbuf.to_le_bytes());
        self.out.truncate(len + nbytes);
        // nbytes == 8 (a shift of 64) only when bitcount hit exactly 64;
        // checked_shr turns that into the zero buffer it should be.
        self.bitbuf = self.bitbuf.checked_shr(self.bitcount & !7).unwrap_or(0);
        self.bitcount &= 7;
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        if self.bitcount > 0 {
            self.out.push((self.bitbuf & 0xff) as u8);
            self.bitbuf = 0;
            self.bitcount = 0;
        }
    }

    /// Append raw bytes; the writer must be byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.bitcount, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Number of complete bytes emitted so far.
    pub fn byte_len(&self) -> usize {
        self.out.len()
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + u64::from(self.bitcount)
    }

    /// Pad to a byte boundary and return the underlying buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    input: &'a [u8],
    /// Next byte to load into `bitbuf`.
    pos: usize,
    bitbuf: u64,
    bitcount: u32,
}

impl<'a> BitReader<'a> {
    /// Start reading from the beginning of `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self {
            input,
            pos: 0,
            bitbuf: 0,
            bitcount: 0,
        }
    }

    /// Pull bytes from the input until at least 56 bits are buffered or the
    /// input is exhausted.
    ///
    /// Away from the end of input this is branch-light: one unaligned 8-byte
    /// little-endian load ORed above the pending bits tops the buffer up to
    /// ≥ 56 valid bits in a single step (the bytes that do not fit are
    /// reloaded by the next refill — loads are idempotent because `pos` only
    /// advances by the bytes actually consumed into `bitbuf`).
    #[inline]
    fn refill(&mut self) {
        if self.bitcount > 56 {
            return;
        }
        if let Some(chunk) = self.input.get(self.pos..self.pos + 8) {
            let mut a = [0u8; 8];
            a.copy_from_slice(chunk);
            self.bitbuf |= u64::from_le_bytes(a) << self.bitcount;
            let loaded = (63 - self.bitcount) >> 3;
            self.pos += loaded as usize;
            self.bitcount += loaded * 8;
            return;
        }
        while self.bitcount <= 56 && self.pos < self.input.len() {
            self.bitbuf |= u64::from(self.input[self.pos]) << self.bitcount;
            self.pos += 1;
            self.bitcount += 8;
        }
    }

    /// Look at the next `count` (≤ 56) bits without consuming them. Bits past
    /// the end of input read as zero, which lets Huffman decoders peek a full
    /// table width near the end of the stream; `consume` still enforces
    /// stream bounds.
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u64 {
        debug_assert!(count <= 56);
        self.refill();
        self.bitbuf & ((1u64 << count) - 1)
    }

    /// Consume `count` bits previously observed with `peek_bits`.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<()> {
        if count > self.bitcount {
            return Err(CodecError::Truncated);
        }
        self.bitbuf >>= count;
        self.bitcount -= count;
        Ok(())
    }

    /// Read and consume `count` (≤ 56) bits.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        let v = self.peek_bits(count);
        if count > self.bitcount {
            return Err(CodecError::Truncated);
        }
        self.consume(count)?;
        Ok(v)
    }

    /// Discard buffered bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.bitcount % 8;
        self.bitbuf >>= drop;
        self.bitcount -= drop;
    }

    /// Read `len` raw bytes; the reader must be byte-aligned.
    pub fn read_bytes(&mut self, len: usize, out: &mut Vec<u8>) -> Result<()> {
        assert_eq!(self.bitcount % 8, 0, "read_bytes requires byte alignment");
        // Drain whole bytes that are already buffered.
        let mut remaining = len;
        while remaining > 0 && self.bitcount >= 8 {
            out.push((self.bitbuf & 0xff) as u8);
            self.bitbuf >>= 8;
            self.bitcount -= 8;
            remaining -= 1;
        }
        if remaining == 0 {
            return Ok(());
        }
        if self.pos + remaining > self.input.len() {
            return Err(CodecError::Truncated);
        }
        // The drain stopped at bitcount == 0 (the caller is byte-aligned),
        // but `bitbuf` may still hold uncounted look-ahead bits from a wide
        // refill. Advancing `pos` past them would leave them describing
        // bytes we are about to skip, so clear the buffer explicitly.
        debug_assert_eq!(self.bitcount, 0);
        self.bitbuf = 0;
        out.extend_from_slice(&self.input[self.pos..self.pos + remaining]);
        self.pos += remaining;
        Ok(())
    }

    /// Number of bytes not yet consumed (buffered bits count as unconsumed).
    pub fn remaining_bytes(&self) -> usize {
        self.input.len() - self.pos + (self.bitcount / 8) as usize
    }
}

/// Reverse the low `len` bits of `code` (used to convert MSB-first Huffman
/// codes to the LSB-first bit stream order of DEFLATE).
#[inline]
pub fn reverse_bits(code: u32, len: u32) -> u32 {
    debug_assert!(len <= 16);
    code.reverse_bits() >> (32 - len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xabcd, 16);
        w.write_bits(1, 1);
        w.write_bits(0x1f_ffff, 21);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xabcd);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(21).unwrap(), 0x1f_ffff);
    }

    #[test]
    fn lsb_first_byte_layout() {
        let mut w = BitWriter::new();
        // 0b1 then 0b0101: byte should be 0000_1011 = 0x0b.
        w.write_bits(1, 1);
        w.write_bits(0b0101, 4);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x0b]);
    }

    #[test]
    fn align_and_raw_bytes_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bytes(&[1, 2, 3]);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_byte();
        let mut out = Vec::new();
        r.read_bytes(3, &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn read_past_end_is_truncated() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert!(matches!(r.read_bits(1), Err(CodecError::Truncated)));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = BitReader::new(&[0b1010_1010]);
        assert_eq!(r.peek_bits(4), 0b1010);
        assert_eq!(r.peek_bits(4), 0b1010);
        r.consume(4).unwrap();
        assert_eq!(r.peek_bits(4), 0b1010);
    }

    #[test]
    fn peek_past_end_reads_zero_bits() {
        let mut r = BitReader::new(&[0x01]);
        assert_eq!(r.peek_bits(16), 0x0001);
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b100, 3), 0b001);
        assert_eq!(reverse_bits(0b1100, 4), 0b0011);
        assert_eq!(reverse_bits(0x0001, 16), 0x8000);
    }

    #[test]
    fn read_bytes_drains_buffered_bits_first() {
        let mut w = BitWriter::new();
        w.write_bytes(&[9, 8, 7, 6]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        // Force a refill so bytes are sitting in the bit buffer.
        assert_eq!(r.peek_bits(8), 9);
        let mut out = Vec::new();
        r.read_bytes(4, &mut out).unwrap();
        assert_eq!(out, vec![9, 8, 7, 6]);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0x7f, 7);
        assert_eq!(w.bit_len(), 8);
        assert_eq!(w.byte_len(), 1);
    }
}
