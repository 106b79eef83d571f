//! FPZ — an `fpzip`-class predictive floating-point compressor.
//!
//! Like Lindstrom & Isenburg's fpzip (IEEE TVCG 2006), FPZ predicts each
//! double with an n-dimensional Lorenzo predictor over the grid the data was
//! produced on, maps doubles to order-preserving unsigned integers, and
//! entropy-codes the prediction residuals: the bit-width "class" of each
//! zigzagged residual goes through an adaptive bit-tree model and the
//! remaining payload bits are coded directly ([`range`]).
//!
//! PRIMACY's related-work section stresses that predictive coders win on
//! smooth, dimensionally-correlated fields but fall behind on turbulent or
//! reorganized data — FPZ reproduces exactly that behaviour.
//!
//! Stream layout: `magic "FPZ1" | u8 rank | varint dims… | varint count |
//! range-coded payload | crc32(raw doubles)`.
#![warn(clippy::indexing_slicing)]

/// Adaptive binary range coder backing the residual stream.
pub mod range;

use crate::checksum::crc32;
use crate::error::{CodecError, Result};
use crate::{read_varint, write_varint, Codec, CodecScratch};
use range::{BitTreeModel, RangeDecoder, RangeEncoder};

const MAGIC: &[u8; 4] = b"FPZ1";
/// Decompression-bomb bound: an adaptive range-coded payload of `B` bytes
/// cannot encode more than `B * MAX_ELEMENTS_PER_BYTE` doubles. The coder's
/// saturated cost per constant element is ~0.02 bits (≈370 elements/byte);
/// 4096 leaves an order of magnitude of margin while rejecting forged counts
/// before any per-element work happens.
pub const MAX_ELEMENTS_PER_BYTE: usize = 4096;
/// Slack allowed between the decoder cursor and the end of the payload. The
/// encoder flushes 5 bytes, so a valid stream never overruns by more than
/// that; past this bound every decoded bit comes from synthesized zeros.
pub const MAX_RANGE_OVERRUN: usize = 16;

/// Grid shape the Lorenzo predictor runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Stream of values; predictor uses the previous value.
    D1,
    /// Row-major `(nx, ny)` grid.
    D2(usize, usize),
    /// Row-major `(nx, ny, nz)` grid, `x` fastest.
    D3(usize, usize, usize),
}

impl Grid {
    fn rank(&self) -> u8 {
        match self {
            Grid::D1 => 1,
            Grid::D2(..) => 2,
            Grid::D3(..) => 3,
        }
    }

    /// Total element count, or `None` for the shapeless 1-D stream. An
    /// overflowing product saturates to `usize::MAX`, which can never match a
    /// decodable element count, so callers reject it by plain comparison.
    fn element_count(&self) -> Option<usize> {
        match *self {
            Grid::D1 => None,
            Grid::D2(nx, ny) => Some(nx.saturating_mul(ny)),
            Grid::D3(nx, ny, nz) => Some(nx.saturating_mul(ny).saturating_mul(nz)),
        }
    }
}

/// The FPZ codec.
#[derive(Debug, Clone, Copy)]
pub struct Fpz {
    /// Grid the predictor assumes. [`Grid::D1`] works for any length.
    pub grid: Grid,
}

impl Default for Fpz {
    fn default() -> Self {
        Self { grid: Grid::D1 }
    }
}

/// Map f64 bit patterns to unsigned integers whose order matches the total
/// order on the floats (negative values inverted, positives offset).
#[inline]
fn map_bits(bits: u64) -> u64 {
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`map_bits`].
#[inline]
fn unmap_bits(mapped: u64) -> u64 {
    if mapped >> 63 == 1 {
        mapped & !(1u64 << 63)
    } else {
        !mapped
    }
}

/// Zigzag a signed residual into an unsigned code.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Lorenzo prediction for element `i` given all previously seen (mapped)
/// values. Out-of-grid neighbours contribute zero.
fn lorenzo_predict(prev: &[u64], i: usize, grid: Grid) -> u64 {
    let get = |idx: Option<usize>| idx.map_or(0u64, |j| prev.get(j).copied().unwrap_or(0));
    match grid {
        Grid::D1 => {
            if i == 0 {
                0
            } else {
                prev.get(i - 1).copied().unwrap_or(0)
            }
        }
        Grid::D2(nx, _) => {
            let x = i % nx;
            let y = i / nx;
            let west = if x > 0 { Some(i - 1) } else { None };
            let south = if y > 0 { Some(i - nx) } else { None };
            let sw = if x > 0 && y > 0 {
                Some(i - nx - 1)
            } else {
                None
            };
            get(west).wrapping_add(get(south)).wrapping_sub(get(sw))
        }
        Grid::D3(nx, ny, _) => {
            // Validated grids satisfy nx * ny <= element count, so the
            // saturating product is exact (and nonzero whenever i exists).
            let plane = nx.saturating_mul(ny);
            let x = i % nx;
            let y = (i / nx) % ny;
            let z = i / plane;
            let at = |dx: usize, dy: usize, dz: usize| -> Option<usize> {
                if (dx == 1 && x == 0) || (dy == 1 && y == 0) || (dz == 1 && z == 0) {
                    None
                } else {
                    let back = dx
                        .saturating_add(dy.saturating_mul(nx))
                        .saturating_add(dz.saturating_mul(plane));
                    i.checked_sub(back)
                }
            };
            // Third-order Lorenzo: +face neighbours, −edge, +corner.
            get(at(1, 0, 0))
                .wrapping_add(get(at(0, 1, 0)))
                .wrapping_add(get(at(0, 0, 1)))
                .wrapping_sub(get(at(1, 1, 0)))
                .wrapping_sub(get(at(1, 0, 1)))
                .wrapping_sub(get(at(0, 1, 1)))
                .wrapping_add(get(at(1, 1, 1)))
        }
    }
}

impl Fpz {
    /// Codec over an explicit grid.
    pub fn with_grid(grid: Grid) -> Self {
        Self { grid }
    }

    /// Compress a slice of doubles.
    pub fn compress_f64(&self, values: &[f64]) -> Result<Vec<u8>> {
        if let Some(expected) = self.grid.element_count() {
            if expected != values.len() {
                return Err(CodecError::InvalidParameter(
                    "value count does not match grid shape",
                ));
            }
        }
        let mut out = Vec::with_capacity(values.len() * 2 + 32);
        out.extend_from_slice(MAGIC);
        out.push(self.grid.rank());
        match self.grid {
            Grid::D1 => {}
            Grid::D2(nx, ny) => {
                write_varint(&mut out, nx as u64);
                write_varint(&mut out, ny as u64);
            }
            Grid::D3(nx, ny, nz) => {
                write_varint(&mut out, nx as u64);
                write_varint(&mut out, ny as u64);
                write_varint(&mut out, nz as u64);
            }
        }
        write_varint(&mut out, values.len() as u64);

        let mapped: Vec<u64> = values.iter().map(|v| map_bits(v.to_bits())).collect();
        let mut enc = RangeEncoder::new();
        // 65 classes (0..=64 significant bits) fit a 7-bit tree.
        let mut class_model = BitTreeModel::new(7);
        for (i, &m) in mapped.iter().enumerate() {
            let pred = lorenzo_predict(&mapped, i, self.grid);
            let residual = zigzag(m.wrapping_sub(pred) as i64);
            let class = 64 - residual.leading_zeros(); // 0..=64
            class_model.encode(&mut enc, class);
            if class > 1 {
                // MSB is implicit; emit the low class-1 bits.
                enc.encode_direct(residual & ((1u64 << (class - 1)) - 1), class - 1);
            }
        }
        out.extend_from_slice(&enc.finish());
        let raw: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        out.extend_from_slice(&crc32(&raw).to_le_bytes());
        Ok(out)
    }

    /// Decompress a stream produced by [`Fpz::compress_f64`].
    pub fn decompress_f64(&self, input: &[u8]) -> Result<Vec<f64>> {
        let mut bytes = Vec::new();
        decode(input, &mut bytes)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut word = [0u8; 8];
                word.copy_from_slice(c); // chunks_exact(8) guarantees the length
                f64::from_le_bytes(word)
            })
            .collect())
    }
}

/// Decode a stream produced by [`Fpz::compress_f64`] into `out` (cleared
/// first) as little-endian doubles. The stream names its own grid.
fn decode(input: &[u8], out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    if input.len() < 10 {
        return Err(CodecError::Truncated);
    }
    if input.get(..4) != Some(MAGIC.as_slice()) {
        return Err(CodecError::BadMagic);
    }
    let rank = input.get(4).copied().ok_or(CodecError::Truncated)?;
    let mut pos = 5usize;
    let mut dims = [0usize; 3];
    if !(1..=3).contains(&rank) {
        return Err(CodecError::Corrupt("fpz rank must be 1..=3"));
    }
    let n_dims = if rank == 1 { 0 } else { rank as usize };
    for d in dims.iter_mut().take(n_dims) {
        let (v, used) = read_varint(input.get(pos..).ok_or(CodecError::Truncated)?)?;
        *d = v as usize;
        pos = pos.checked_add(used).ok_or(CodecError::Truncated)?;
    }
    let (count, used) = read_varint(input.get(pos..).ok_or(CodecError::Truncated)?)?;
    let count = count as usize;
    pos = pos.checked_add(used).ok_or(CodecError::Truncated)?;
    let [d0, d1, d2] = dims;
    let grid = match rank {
        1 => Grid::D1,
        2 => Grid::D2(d0, d1),
        _ => Grid::D3(d0, d1, d2),
    };
    if let Some(expected) = grid.element_count() {
        if expected != count {
            return Err(CodecError::Corrupt("fpz grid/count mismatch"));
        }
        if dims.iter().take(n_dims).any(|&d| d == 0) {
            return Err(CodecError::Corrupt("fpz zero grid dimension"));
        }
    }
    let body_end = input.len() - 4;
    let body = input.get(pos..body_end).ok_or(CodecError::Truncated)?;
    if count > body.len().saturating_mul(MAX_ELEMENTS_PER_BYTE) {
        return Err(CodecError::Corrupt("fpz count implausible for payload"));
    }
    let mut dec = RangeDecoder::new(body)?;
    let mut class_model = BitTreeModel::new(7);
    let mut mapped = Vec::with_capacity(crate::clamped_capacity(count as u64));
    out.reserve(crate::clamped_capacity((count as u64).saturating_mul(8)));
    for i in 0..count {
        if dec.overrun() > MAX_RANGE_OVERRUN {
            return Err(CodecError::Truncated);
        }
        let class = class_model.decode(&mut dec);
        if class > 64 {
            return Err(CodecError::Corrupt("fpz residual class exceeds 64"));
        }
        let residual = match class {
            0 => 0u64,
            1 => 1u64,
            c => (1u64 << (c - 1)) | dec.decode_direct(c - 1),
        };
        let pred = lorenzo_predict(&mapped, i, grid);
        let m = pred.wrapping_add(unzigzag(residual) as u64);
        mapped.push(m);
        out.extend_from_slice(&unmap_bits(m).to_le_bytes());
    }
    let stored = u32::from_le_bytes(crate::read_array(input, body_end)?);
    let actual = crc32(out);
    if stored != actual {
        return Err(CodecError::ChecksumMismatch {
            expected: stored,
            actual,
        });
    }
    Ok(())
}

/// FPZ keeps no state between calls, so both methods ignore `scratch`.
impl Codec for Fpz {
    fn name(&self) -> &'static str {
        "fpz"
    }

    /// Byte interface: whole doubles are coded (always on a 1-D grid, since
    /// an arbitrary byte stream has no shape), a ragged tail is stored raw.
    fn compress_with(&self, input: &[u8], _scratch: &mut CodecScratch) -> Result<Vec<u8>> {
        let whole = input.len() / 8 * 8;
        let values: Vec<f64> = input
            .chunks_exact(8)
            .map(|c| {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(c); // chunks_exact(8) guarantees the length
                f64::from_le_bytes(bytes)
            })
            .collect();
        let mut out = Fpz::default().compress_f64(&values)?;
        out.extend_from_slice(input.get(whole..).unwrap_or(&[]));
        out.push((input.len() - whole) as u8);
        Ok(out)
    }

    fn decompress_into(
        &self,
        input: &[u8],
        _scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let tail_len = usize::from(*input.last().ok_or(CodecError::Truncated)?);
        if tail_len >= 8 || input.len() < 1 + tail_len {
            return Err(CodecError::Corrupt("fpz tail length invalid"));
        }
        let split = input.len() - 1 - tail_len;
        let body = input.get(..split).ok_or(CodecError::Truncated)?;
        let tail = input.get(split..input.len() - 1).unwrap_or(&[]);
        decode(body, out)?;
        out.extend_from_slice(tail);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_bits_preserves_order() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            let a = map_bits(w[0].to_bits());
            let b = map_bits(w[1].to_bits());
            assert!(a <= b, "{} -> {a:#x} vs {} -> {b:#x}", w[0], w[1]);
        }
        for v in samples {
            assert_eq!(unmap_bits(map_bits(v.to_bits())), v.to_bits());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn roundtrip_1d_smooth() {
        let fpz = Fpz::default();
        let values: Vec<f64> = (0..20_000)
            .map(|i| (i as f64 * 0.01).cos() * 42.0)
            .collect();
        let comp = fpz.compress_f64(&values).unwrap();
        let back = fpz.decompress_f64(&comp).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn roundtrip_2d_field() {
        let (nx, ny) = (64, 48);
        let fpz = Fpz::with_grid(Grid::D2(nx, ny));
        let values: Vec<f64> = (0..nx * ny)
            .map(|i| {
                let (x, y) = ((i % nx) as f64, (i / nx) as f64);
                (x * 0.1).sin() + (y * 0.07).cos()
            })
            .collect();
        let comp = fpz.compress_f64(&values).unwrap();
        assert_eq!(fpz.decompress_f64(&comp).unwrap(), values);
    }

    #[test]
    fn roundtrip_3d_field() {
        let (nx, ny, nz) = (16, 12, 10);
        let fpz = Fpz::with_grid(Grid::D3(nx, ny, nz));
        let values: Vec<f64> = (0..nx * ny * nz)
            .map(|i| {
                let x = (i % nx) as f64;
                let y = ((i / nx) % ny) as f64;
                let z = (i / (nx * ny)) as f64;
                x * 1.5 + y * 2.5 + z * 3.5
            })
            .collect();
        let comp = fpz.compress_f64(&values).unwrap();
        assert_eq!(fpz.decompress_f64(&comp).unwrap(), values);
    }

    #[test]
    fn smooth_2d_beats_1d_grid() {
        // Dimensional correlation is what fpzip exploits; a 2-D Lorenzo
        // predictor must beat the 1-D chain on a genuinely 2-D field.
        let (nx, ny) = (128, 128);
        let values: Vec<f64> = (0..nx * ny)
            .map(|i| {
                let (x, y) = ((i % nx) as f64, (i / nx) as f64);
                (x * 0.05).sin() * (y * 0.03).cos() * 1000.0
            })
            .collect();
        let c2 = Fpz::with_grid(Grid::D2(nx, ny))
            .compress_f64(&values)
            .unwrap();
        let c1 = Fpz::default().compress_f64(&values).unwrap();
        assert!(c2.len() < c1.len(), "2D {} vs 1D {}", c2.len(), c1.len());
    }

    #[test]
    fn grid_shape_mismatch_rejected() {
        let fpz = Fpz::with_grid(Grid::D2(10, 10));
        assert!(fpz.compress_f64(&[1.0; 99]).is_err());
    }

    #[test]
    fn roundtrip_random_doubles() {
        let fpz = Fpz::default();
        let mut x = 31u64;
        let values: Vec<f64> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(7);
                f64::from_bits((x >> 2) | 0x3FF0_0000_0000_0000)
            })
            .collect();
        let comp = fpz.compress_f64(&values).unwrap();
        assert_eq!(fpz.decompress_f64(&comp).unwrap(), values);
    }

    #[test]
    fn special_values_roundtrip() {
        let fpz = Fpz::default();
        let values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MAX,
        ];
        let comp = fpz.compress_f64(&values).unwrap();
        let back = fpz.decompress_f64(&comp).unwrap();
        for (a, b) in back.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn byte_interface_with_tail() {
        let fpz = Fpz::default();
        let data: Vec<u8> = (0u8..=255).cycle().take(83).collect(); // ragged
        let comp = fpz.compress(&data).unwrap();
        assert_eq!(fpz.decompress(&comp).unwrap(), data);
    }

    #[test]
    fn corruption_detected() {
        let fpz = Fpz::default();
        let values: Vec<f64> = (0..2000).map(|i| i as f64 * 0.25).collect();
        let mut comp = fpz.compress_f64(&values).unwrap();
        let mid = comp.len() / 2;
        comp[mid] ^= 0x20;
        assert!(fpz.decompress_f64(&comp).is_err());
    }

    #[test]
    fn empty_input() {
        let fpz = Fpz::default();
        let comp = fpz.compress_f64(&[]).unwrap();
        assert!(fpz.decompress_f64(&comp).unwrap().is_empty());
    }
}
