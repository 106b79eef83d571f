//! Adaptive binary range coder (carry-cached, LZMA-style renormalization).
//!
//! Probabilities are 11-bit (`0..2048`) and adapt with shift-5 exponential
//! decay. Besides modeled bits, the coder supports "direct" (unmodeled,
//! probability-½) bits for residual payloads.

use crate::error::{CodecError, Result};

/// Number of probability quantization bits.
const PROB_BITS: u32 = 11;
/// Initial probability: one half.
pub const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
/// Adaptation shift.
const ADAPT_SHIFT: u32 = 5;
const TOP: u32 = 1 << 24;

/// An adaptive probability of the next bit being 0.
#[derive(Debug, Clone, Copy)]
pub struct Prob(pub u16);

impl Default for Prob {
    fn default() -> Self {
        Prob(PROB_INIT)
    }
}

impl Prob {
    #[inline]
    fn update(&mut self, bit: u32) {
        if bit == 0 {
            self.0 += ((1 << PROB_BITS) - self.0) >> ADAPT_SHIFT;
        } else {
            self.0 -= self.0 >> ADAPT_SHIFT;
        }
    }
}

/// Range encoder writing to an internal buffer.
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            if self.cache_size != 0 {
                self.out.push(self.cache.wrapping_add(carry));
                for _ in 1..self.cache_size {
                    self.out.push(0xFFu8.wrapping_add(carry));
                }
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encode one modeled bit.
    #[inline]
    pub fn encode_bit(&mut self, prob: &mut Prob, bit: u32) {
        // range>>11 < 2^21 times an 11-bit probability stays under 2^32,
        // and low < 2^33 plus a u32 stays far under 2^64: wrap-free.
        let bound = (self.range >> PROB_BITS).wrapping_mul(u32::from(prob.0));
        if bit == 0 {
            self.range = bound;
        } else {
            self.low = self.low.wrapping_add(u64::from(bound));
            self.range -= bound;
        }
        prob.update(bit);
        if self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encode `count` unmodeled bits of `value`, most-significant first.
    pub fn encode_direct(&mut self, value: u64, count: u32) {
        for i in (0..count).rev() {
            let bit = ((value >> i) & 1) as u32;
            self.range >>= 1;
            if bit != 0 {
                // low < 2^33 plus a u32 cannot wrap a u64.
                self.low = self.low.wrapping_add(u64::from(self.range));
            }
            if self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }
    }

    /// Flush and return the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Range decoder reading from a byte slice.
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Initialize from an encoded stream (consumes the 5-byte preamble).
    pub fn new(input: &'a [u8]) -> Result<Self> {
        if input.len() < 5 {
            return Err(CodecError::Truncated);
        }
        let mut code = 0u32;
        // The first byte is the encoder's initial zero cache; skip it.
        for &b in input.get(1..5).ok_or(CodecError::Truncated)? {
            code = (code << 8) | u32::from(b);
        }
        Ok(Self {
            code,
            range: u32::MAX,
            input,
            pos: 5,
        })
    }

    /// Bytes consumed beyond the end of the input. A well-formed stream
    /// never overruns by more than the coder's flush slack; a growing
    /// overrun means the decoder is pulling synthesized zeros — callers
    /// bound it to cap decompression work on forged element counts.
    pub fn overrun(&self) -> usize {
        self.pos.saturating_sub(self.input.len())
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        // Reading past the end yields zeros; a truncated stream will fail
        // the container checksum instead.
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decode one modeled bit.
    #[inline]
    // lint: allow(decode-result) -- coder primitive: zero-fills past end by design; the container CRC rejects truncation
    pub fn decode_bit(&mut self, prob: &mut Prob) -> u32 {
        // Same bound proof as `encode_bit`: the product stays under 2^32.
        let bound = (self.range >> PROB_BITS).wrapping_mul(u32::from(prob.0));
        let bit = if self.code < bound {
            self.range = bound;
            0
        } else {
            self.code -= bound;
            self.range -= bound;
            1
        };
        prob.update(bit);
        if self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | u32::from(self.next_byte());
        }
        bit
    }

    /// Decode `count` unmodeled bits, most-significant first.
    // lint: allow(decode-result) -- coder primitive: zero-fills past end by design; the container CRC rejects truncation
    pub fn decode_direct(&mut self, count: u32) -> u64 {
        let mut value = 0u64;
        for _ in 0..count {
            self.range >>= 1;
            let bit = if self.code >= self.range {
                self.code -= self.range;
                1u64
            } else {
                0u64
            };
            value = (value << 1) | bit;
            if self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | u32::from(self.next_byte());
            }
        }
        value
    }
}

/// A complete binary context tree for coding an `n_bits`-wide symbol, one
/// adaptive probability per internal node.
#[derive(Debug, Clone)]
pub struct BitTreeModel {
    probs: Vec<Prob>,
    n_bits: u32,
}

impl BitTreeModel {
    /// Model for symbols in `0..(1 << n_bits)`.
    pub fn new(n_bits: u32) -> Self {
        Self {
            probs: vec![Prob::default(); 1 << n_bits],
            n_bits,
        }
    }

    /// Encode `symbol` (must fit in `n_bits`).
    pub fn encode(&mut self, enc: &mut RangeEncoder, symbol: u32) {
        debug_assert!(symbol < (1 << self.n_bits));
        let mut ctx = 1usize;
        for i in (0..self.n_bits).rev() {
            let bit = (symbol >> i) & 1;
            #[expect(
                clippy::indexing_slicing,
                reason = "tree walk invariant: ctx < 2^n_bits == probs.len()"
            )]
            let prob = &mut self.probs[ctx];
            enc.encode_bit(prob, bit);
            ctx = (ctx << 1) | bit as usize;
        }
    }

    /// Decode one symbol.
    // lint: allow(decode-result) -- coder primitive: zero-fills past end by design; the container CRC rejects truncation
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
        let mut ctx = 1usize;
        for _ in 0..self.n_bits {
            #[expect(
                clippy::indexing_slicing,
                reason = "tree walk invariant: ctx < 2^n_bits == probs.len()"
            )]
            let bit = dec.decode_bit(&mut self.probs[ctx]);
            ctx = (ctx << 1) | bit as usize;
        }
        (ctx as u32) - (1 << self.n_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_bits_roundtrip() {
        let bits: Vec<u32> = (0..5000).map(|i| u32::from(i % 7 == 0)).collect();
        let mut enc = RangeEncoder::new();
        let mut p = Prob::default();
        for &b in &bits {
            enc.encode_bit(&mut p, b);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data).unwrap();
        let mut p = Prob::default();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut p), b);
        }
    }

    #[test]
    fn skewed_bits_compress_below_one_bit_each() {
        // 1% ones: an adaptive coder should get well under n/8 bytes.
        let bits: Vec<u32> = (0..80_000).map(|i| u32::from(i % 100 == 0)).collect();
        let mut enc = RangeEncoder::new();
        let mut p = Prob::default();
        for &b in &bits {
            enc.encode_bit(&mut p, b);
        }
        let data = enc.finish();
        assert!(
            data.len() < bits.len() / 8 / 4,
            "80000 skewed bits took {} bytes",
            data.len()
        );
    }

    #[test]
    fn direct_bits_roundtrip() {
        let values: Vec<(u64, u32)> = vec![
            (0, 1),
            (1, 1),
            (0xdead, 16),
            (0xFFFF_FFFF_FFFF, 48),
            (0, 33),
            (u64::MAX >> 1, 63),
        ];
        let mut enc = RangeEncoder::new();
        for &(v, n) in &values {
            enc.encode_direct(v, n);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data).unwrap();
        for &(v, n) in &values {
            assert_eq!(dec.decode_direct(n), v, "value {v:#x} width {n}");
        }
    }

    #[test]
    fn mixed_modeled_and_direct() {
        let mut enc = RangeEncoder::new();
        let mut tree = BitTreeModel::new(7);
        for i in 0..2000u32 {
            tree.encode(&mut enc, i % 65);
            enc.encode_direct(u64::from(i), 11);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data).unwrap();
        let mut tree = BitTreeModel::new(7);
        for i in 0..2000u32 {
            assert_eq!(tree.decode(&mut dec), i % 65);
            assert_eq!(dec.decode_direct(11), u64::from(i) & 0x7FF);
        }
    }

    #[test]
    fn bit_tree_skewed_symbols_compress() {
        let mut enc = RangeEncoder::new();
        let mut tree = BitTreeModel::new(7);
        for _ in 0..10_000 {
            tree.encode(&mut enc, 3);
        }
        let data = enc.finish();
        // Adaptive probabilities saturate near (but not at) certainty, so a
        // constant symbol still costs a fraction of a bit: well under the
        // 8750 bytes a flat 7-bit encoding would take.
        assert!(
            data.len() < 500,
            "constant symbol took {} bytes",
            data.len()
        );
    }

    #[test]
    fn decoder_needs_five_bytes() {
        assert!(RangeDecoder::new(&[1, 2, 3]).is_err());
    }
}
