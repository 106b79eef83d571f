//! FPC — Burtscher & Ratanaworabhan's high-speed compressor for
//! double-precision floating-point data (IEEE TC 2009), reimplemented as a
//! related-work comparator for PRIMACY (§V of the paper).
//!
//! Each double is predicted twice — by an FCM (finite context method) table
//! and a DFCM (differential FCM) table — and XOR'd with the better
//! prediction. The XOR residual of a good prediction has many leading zero
//! bytes; FPC emits a 4-bit code per value (1 selector bit + 3 bits of
//! leading-zero-byte count, with count 4 folded to 3 as in the original) and
//! then only the nonzero residual tail bytes.
//!
//! Stream layout: `magic "FPC1" | u8 table_log2 | varint count | header
//! nibbles (2 values per byte) | residual bytes | crc32(payload doubles)`.
//!
//! Every stream starts from all-zero tables. Callers without a scratch get
//! fresh tables per call; [`Codec::compress_with`] and
//! [`Codec::decompress_into`] borrow an [`FpcScratch`]'s tables instead and
//! zero again only the slots the call wrote, so a 2 KiB call does not pay
//! for zeroing 16 MiB.

use crate::checksum::crc32;
use crate::error::{CodecError, Result};
use crate::{read_varint, write_varint, Codec, CodecScratch};

const MAGIC: &[u8; 4] = b"FPC1";
/// Default predictor table size: 2^20 entries × 8 bytes = 8 MiB per table,
/// mirroring the reference implementation's sweet spot.
pub const DEFAULT_TABLE_LOG2: u8 = 20;
/// Largest tables an [`FpcScratch`] keeps between calls: 2^20 slots, 16 MiB
/// for the pair. A stream naming a larger table gets fresh tables for that
/// call, so a 12-byte request naming 2^28 cannot make a worker keep 4 GiB.
const KEEP_LOG2: u8 = DEFAULT_TABLE_LOG2;
/// A call that fed at least `1 / FILL_SHARE` of a table's slots clears the
/// tables with `fill(0)` instead of replaying its hash walk. Measured on a
/// 2-vCPU Xeon VM, replay overtakes a fill between 1/16 and 1/8 of the
/// slots on random doubles (every write a cache miss) and between 1/4 and
/// 1/2 on a smooth series; at 1/4 the slower choice costs at most ~2.5×
/// the faster, the smallest worst case of the powers of two.
const FILL_SHARE: usize = 4;

/// The FPC codec. `table_log2` trades memory for prediction accuracy.
#[derive(Debug, Clone, Copy)]
pub struct Fpc {
    /// log2 of the FCM/DFCM table sizes (1..=28).
    pub table_log2: u8,
}

impl Default for Fpc {
    fn default() -> Self {
        Self {
            table_log2: DEFAULT_TABLE_LOG2,
        }
    }
}

impl Fpc {
    /// Codec with an explicit table size.
    pub fn with_table_log2(table_log2: u8) -> Result<Self> {
        if !(1..=28).contains(&table_log2) {
            return Err(CodecError::InvalidParameter("table_log2 must be 1..=28"));
        }
        Ok(Self { table_log2 })
    }
}

/// FCM/DFCM predictor tables kept across calls, the `fpc` field of
/// [`CodecScratch`].
///
/// Both tables are all zero between calls. A call borrows their first
/// `1 << table_log2` slots, growing them to that size if needed, and
/// afterwards zeroes again every slot it wrote, whether it returned `Ok` or
/// an error. Sizes above 2^20 slots are never kept.
#[derive(Debug, Default)]
pub struct FpcScratch {
    fcm: Vec<u64>,
    dfcm: Vec<u64>,
}

impl FpcScratch {
    /// The first `1 << table_log2` slots of both tables, all zero, or `None`
    /// when that is more than a scratch keeps.
    fn tables(&mut self, table_log2: u8) -> Option<(&mut [u64], &mut [u64])> {
        if table_log2 > KEEP_LOG2 {
            return None;
        }
        let size = 1usize << table_log2;
        if self.fcm.len() < size {
            // The smaller tables are all zero; nothing is lost by replacing them.
            self.fcm = vec![0; size];
            self.dfcm = vec![0; size];
        }
        Some((&mut self.fcm[..size], &mut self.dfcm[..size]))
    }
}

/// Fresh all-zero tables of `1 << table_log2` slots, for one call.
fn fresh_tables(table_log2: u8) -> (Vec<u64>, Vec<u64>) {
    let size = 1usize << table_log2;
    (vec![0; size], vec![0; size])
}

/// Zero every slot of `fcm`/`dfcm` that predictors starting from all-zero
/// tables wrote while fed `values` (little-endian doubles): replay their
/// hash walk writing zeros, or zero the whole tables when `values` cover a
/// large share of them.
fn clear(fcm: &mut [u64], dfcm: &mut [u64], values: &[u8]) {
    if values.len() / 8 >= fcm.len() / FILL_SHARE {
        fcm.fill(0);
        dfcm.fill(0);
        return;
    }
    let mut pred = Predictors::new(fcm, dfcm);
    for value in doubles(values) {
        pred.update::<true>(value);
    }
}

/// The bit patterns of the little-endian doubles in `bytes`; a ragged tail
/// is ignored.
fn doubles(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|chunk| {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk); // chunks_exact(8) guarantees the length
        u64::from_le_bytes(word)
    })
}

/// Shared FCM/DFCM predictor state, updated identically on both sides.
struct Predictors<'t> {
    fcm: &'t mut [u64],
    dfcm: &'t mut [u64],
    fcm_hash: usize,
    dfcm_hash: usize,
    last: u64,
    mask: usize,
}

impl<'t> Predictors<'t> {
    /// Predictors over two all-zero tables of the same power-of-two length.
    fn new(fcm: &'t mut [u64], dfcm: &'t mut [u64]) -> Self {
        debug_assert!(fcm.len().is_power_of_two() && dfcm.len() == fcm.len());
        let mask = fcm.len() - 1;
        Self {
            fcm,
            dfcm,
            fcm_hash: 0,
            dfcm_hash: 0,
            last: 0,
            mask,
        }
    }

    /// Current predictions `(fcm_pred, dfcm_pred)`.
    #[inline]
    fn predict(&self) -> (u64, u64) {
        (
            self.fcm[self.fcm_hash],
            self.dfcm[self.dfcm_hash].wrapping_add(self.last),
        )
    }

    /// Fold the true value into both tables and advance the hashes, exactly
    /// as the reference FPC does. With `CLEAR`, write zeros instead: the
    /// same walk over a call's values then undoes that call's writes.
    #[inline]
    fn update<const CLEAR: bool>(&mut self, actual: u64) {
        let delta = actual.wrapping_sub(self.last);
        self.fcm[self.fcm_hash] = if CLEAR { 0 } else { actual };
        self.fcm_hash = ((self.fcm_hash << 6) ^ (actual >> 48) as usize) & self.mask;
        self.dfcm[self.dfcm_hash] = if CLEAR { 0 } else { delta };
        self.dfcm_hash = ((self.dfcm_hash << 2) ^ (delta >> 40) as usize) & self.mask;
        self.last = actual;
    }
}

/// Map a leading-zero-byte count to its 3-bit code. FPC cannot encode the
/// value 4 (3 bits cover {0,1,2,3,5,6,7,8}), so 4 is demoted to 3.
#[inline]
fn lzb_to_code(lzb: u32) -> u32 {
    match lzb {
        0..=3 => lzb,
        4 => 3,
        _ => lzb - 1,
    }
}

/// Inverse of [`lzb_to_code`].
#[inline]
fn code_to_lzb(code: u32) -> u32 {
    if code <= 3 {
        code
    } else {
        code + 1
    }
}

/// Capacity that holds the [`Codec::compress`] stream of `len` input bytes
/// without growing: the fixed fields (magic, table size, count varint, CRC,
/// tail varint), a header nibble and at most 8 residual bytes per double,
/// and the raw tail.
fn max_stream_len(len: usize) -> usize {
    len + (len / 8).div_ceil(2) + 20
}

/// Append the FPC stream of `input` (whole doubles) to `out`, predicting
/// from `pred`'s tables.
fn encode(input: &[u8], table_log2: u8, mut pred: Predictors<'_>, out: &mut Vec<u8>) {
    let count = input.len() / 8;
    out.extend_from_slice(MAGIC);
    out.push(table_log2);
    write_varint(out, count as u64);
    // The header nibbles fill a region of known size, two values per byte;
    // the residual bytes follow it.
    let headers = out.len();
    out.resize(headers + count.div_ceil(2), 0);
    for (i, actual) in doubles(input).enumerate() {
        let (fcm_pred, dfcm_pred) = pred.predict();
        let xor_fcm = actual ^ fcm_pred;
        let xor_dfcm = actual ^ dfcm_pred;
        let (selector, xor) = if xor_fcm <= xor_dfcm {
            (0u32, xor_fcm)
        } else {
            (1u32, xor_dfcm)
        };
        let lzb = (xor.leading_zeros() / 8).min(8);
        let code = lzb_to_code(lzb);
        let nibble = ((selector << 3) | code) as u8;
        out[headers + i / 2] |= if i % 2 == 0 { nibble << 4 } else { nibble };
        // Emit the residual tail (8 - effective_lzb bytes, big-end first
        // skipped: we store the low-order bytes little-endian).
        let keep = 8 - code_to_lzb(code) as usize;
        out.extend_from_slice(&xor.to_le_bytes()[..keep]);
        pred.update::<false>(actual);
    }
    out.extend_from_slice(&crc32(input).to_le_bytes());
}

/// An FPC stream's fields, bounds-checked before any decoding.
struct Frame<'a> {
    input: &'a [u8],
    table_log2: u8,
    count: usize,
    headers: &'a [u8],
    /// Offset of the first residual byte.
    residuals: usize,
    /// Offset of the CRC, one past the last residual byte.
    body_end: usize,
}

impl<'a> Frame<'a> {
    fn parse(input: &'a [u8]) -> Result<Self> {
        if input.len() < MAGIC.len() + 1 + 1 + 4 {
            return Err(CodecError::Truncated);
        }
        if &input[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let table_log2 = input[4];
        if !(1..=28).contains(&table_log2) {
            return Err(CodecError::Corrupt("fpc table size out of range"));
        }
        let (count, used) = read_varint(&input[5..])?;
        let count = count as usize;
        let pos = 5usize.saturating_add(used);
        let header_bytes = count.div_ceil(2);
        let body_end = input.len() - 4;
        // `count` is an attacker-controllable varint: checked arithmetic only.
        let headers_end = pos
            .checked_add(header_bytes)
            .filter(|&e| e <= body_end)
            .ok_or(CodecError::Truncated)?;
        let headers = input.get(pos..headers_end).ok_or(CodecError::Truncated)?;
        Ok(Self {
            input,
            table_log2,
            count,
            headers,
            residuals: headers_end,
            body_end,
        })
    }
}

/// Decode `frame` onto the end of `out`, predicting from `pred`'s tables.
/// Each double reaches `out` just before it is folded into the tables, so
/// after an error `out` still ends with exactly the doubles the tables saw.
fn decode(frame: &Frame<'_>, mut pred: Predictors<'_>, out: &mut Vec<u8>) -> Result<()> {
    let (input, body_end) = (frame.input, frame.body_end);
    let start = out.len();
    let mut pos = frame.residuals;
    for i in 0..frame.count {
        let byte = frame.headers[i / 2];
        let nibble = if i % 2 == 0 { byte >> 4 } else { byte & 0x0f };
        let selector = u32::from(nibble >> 3);
        let lzb = code_to_lzb(u32::from(nibble & 0x07));
        let keep = 8 - lzb as usize;
        if pos + keep > body_end {
            return Err(CodecError::Truncated);
        }
        let mut xor_bytes = [0u8; 8];
        xor_bytes[..keep].copy_from_slice(&input[pos..pos + keep]);
        pos += keep;
        let xor = u64::from_le_bytes(xor_bytes);
        let (fcm_pred, dfcm_pred) = pred.predict();
        let prediction = if selector == 0 { fcm_pred } else { dfcm_pred };
        let actual = xor ^ prediction;
        out.extend_from_slice(&actual.to_le_bytes());
        pred.update::<false>(actual);
    }
    if pos != body_end {
        return Err(CodecError::Corrupt("fpc trailing residual bytes"));
    }
    let stored =
        u32::from_le_bytes(crate::read_array(input, body_end).ok_or(CodecError::Truncated)?);
    let actual_crc = crc32(&out[start..]);
    if stored != actual_crc {
        return Err(CodecError::ChecksumMismatch {
            expected: stored,
            actual: actual_crc,
        });
    }
    Ok(())
}

impl Fpc {
    /// Compress a raw little-endian stream of f64 bit patterns. The input
    /// length must be a multiple of 8.
    pub fn compress_bytes(&self, input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(max_stream_len(input.len()));
        self.encode_into(input, None, &mut out)?;
        Ok(out)
    }

    /// Decompress a stream produced by [`Fpc::compress_bytes`].
    pub fn decompress_bytes(&self, input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        decode_into(input, None, &mut out)?;
        Ok(out)
    }

    /// Append the stream of `input` (whole doubles) to `out`, on `scratch`'s
    /// tables when it keeps this size and on fresh ones otherwise.
    fn encode_into(
        &self,
        input: &[u8],
        scratch: Option<&mut FpcScratch>,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if !input.len().is_multiple_of(8) {
            return Err(CodecError::InvalidParameter(
                "fpc input must be a multiple of 8 bytes",
            ));
        }
        match scratch.and_then(|s| s.tables(self.table_log2)) {
            Some((fcm, dfcm)) => {
                encode(input, self.table_log2, Predictors::new(fcm, dfcm), out);
                clear(fcm, dfcm, input);
            }
            None => {
                let (mut fcm, mut dfcm) = fresh_tables(self.table_log2);
                encode(
                    input,
                    self.table_log2,
                    Predictors::new(&mut fcm, &mut dfcm),
                    out,
                );
            }
        }
        Ok(())
    }

    /// The [`Codec`] framing: the stream of the whole doubles, then the raw
    /// tail bytes and their count.
    fn compress_framed(&self, input: &[u8], scratch: Option<&mut FpcScratch>) -> Result<Vec<u8>> {
        let whole = input.len() / 8 * 8;
        let mut out = Vec::with_capacity(max_stream_len(input.len()));
        self.encode_into(&input[..whole], scratch, &mut out)?;
        out.extend_from_slice(&input[whole..]);
        write_varint(&mut out, (input.len() - whole) as u64);
        Ok(out)
    }

    /// Convenience: compress a slice of doubles.
    pub fn compress_f64(&self, values: &[f64]) -> Result<Vec<u8>> {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.compress_bytes(&bytes)
    }

    /// Convenience: decompress into doubles.
    pub fn decompress_f64(&self, input: &[u8]) -> Result<Vec<f64>> {
        let bytes = self.decompress_bytes(input)?;
        Ok(doubles(&bytes).map(f64::from_bits).collect())
    }
}

/// Decode the stream `input` onto the end of `out`, on `scratch`'s tables
/// when it keeps the size the stream names and on fresh ones otherwise.
fn decode_into(input: &[u8], scratch: Option<&mut FpcScratch>, out: &mut Vec<u8>) -> Result<()> {
    let frame = Frame::parse(input)?;
    // `count` is untrusted, so the reservation is clamped; the 7 extra bytes
    // leave room for the raw tail `Codec::decompress` appends.
    out.reserve(crate::clamped_capacity((frame.count as u64).saturating_mul(8)) + 7);
    let start = out.len();
    match scratch.and_then(|s| s.tables(frame.table_log2)) {
        Some((fcm, dfcm)) => {
            let decoded = decode(&frame, Predictors::new(fcm, dfcm), out);
            clear(fcm, dfcm, &out[start..]);
            decoded
        }
        None => {
            let (mut fcm, mut dfcm) = fresh_tables(frame.table_log2);
            decode(&frame, Predictors::new(&mut fcm, &mut dfcm), out)
        }
    }
}

/// Reverse [`Fpc::compress_framed`] onto the end of `out`.
fn decompress_framed(
    input: &[u8],
    scratch: Option<&mut FpcScratch>,
    out: &mut Vec<u8>,
) -> Result<()> {
    let Some(&tail_len) = input.last() else {
        return Err(CodecError::Truncated);
    };
    // The tail varint is a single byte (< 8).
    let tail_len = tail_len as usize;
    if tail_len >= 8 || input.len() < 1 + tail_len {
        return Err(CodecError::Corrupt("fpc tail length invalid"));
    }
    let body = &input[..input.len() - 1 - tail_len];
    let tail = &input[input.len() - 1 - tail_len..input.len() - 1];
    decode_into(body, scratch, out)?;
    out.extend_from_slice(tail);
    Ok(())
}

impl Codec for Fpc {
    fn name(&self) -> &'static str {
        "fpc"
    }

    /// FPC operates on whole doubles; trailing bytes (input length not a
    /// multiple of 8) are stored raw after the coded stream.
    fn compress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.compress_framed(input, None)
    }

    fn compress_with(&self, input: &[u8], scratch: &mut CodecScratch) -> Result<Vec<u8>> {
        self.compress_framed(input, Some(&mut scratch.fpc))
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        decompress_framed(input, None, &mut out)?;
        Ok(out)
    }

    fn decompress_into(
        &self,
        input: &[u8],
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        out.clear();
        decompress_framed(input, Some(&mut scratch.fpc), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.001).sin() * 100.0 + i as f64 * 0.5)
            .collect()
    }

    #[test]
    fn roundtrip_smooth_series() {
        let fpc = Fpc::default();
        let values = smooth_series(10_000);
        let comp = fpc.compress_f64(&values).unwrap();
        let back = fpc.decompress_f64(&comp).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn compresses_predictable_data() {
        let fpc = Fpc::default();
        // A constant-step ramp is perfectly DFCM-predictable.
        let values: Vec<f64> = (0..50_000).map(|i| i as f64).collect();
        let comp = fpc.compress_f64(&values).unwrap();
        assert!(
            comp.len() * 2 < values.len() * 8,
            "ramp compressed to {} of {}",
            comp.len(),
            values.len() * 8
        );
    }

    #[test]
    fn roundtrip_random_doubles() {
        let fpc = Fpc::default();
        let mut x = 0xABCDEFu64;
        let values: Vec<f64> = (0..8_192)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                f64::from_bits((x >> 2) | 0x3FF0_0000_0000_0000)
            })
            .collect();
        let comp = fpc.compress_f64(&values).unwrap();
        assert_eq!(fpc.decompress_f64(&comp).unwrap(), values);
    }

    #[test]
    fn roundtrip_special_values() {
        let fpc = Fpc::default();
        let values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN,
            f64::MAX,
            f64::MIN_POSITIVE,
            1e-308,
            std::f64::consts::PI,
        ];
        let comp = fpc.compress_f64(&values).unwrap();
        let back = fpc.decompress_f64(&comp).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let fpc = Fpc::default();
        let values = vec![f64::from_bits(0x7FF8_0000_0000_0001), f64::NAN, 1.0];
        let comp = fpc.compress_f64(&values).unwrap();
        let back = fpc.decompress_f64(&comp).unwrap();
        for (a, b) in back.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lzb_code_mapping_is_consistent() {
        for lzb in 0..=8u32 {
            let code = lzb_to_code(lzb);
            assert!(code < 8);
            let back = code_to_lzb(code);
            if lzb == 4 {
                assert_eq!(back, 3); // folded case loses one zero byte
            } else {
                assert_eq!(back, lzb);
            }
        }
    }

    #[test]
    fn byte_interface_handles_ragged_tail() {
        let fpc = Fpc::default();
        let mut data: Vec<u8> = smooth_series(100)
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        data.extend_from_slice(&[1, 2, 3]); // not a multiple of 8
        let comp = fpc.compress(&data).unwrap();
        assert_eq!(fpc.decompress(&comp).unwrap(), data);
    }

    #[test]
    fn rejects_corruption_and_bad_magic() {
        let fpc = Fpc::default();
        let comp = fpc.compress_f64(&smooth_series(1000)).unwrap();
        let mut bad = comp.clone();
        bad[0] = b'X';
        assert!(matches!(
            fpc.decompress_bytes(&bad),
            Err(CodecError::BadMagic)
        ));
        let mut bad = comp.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(fpc.decompress_bytes(&bad).is_err());
    }

    #[test]
    fn small_tables_still_roundtrip() {
        let fpc = Fpc::with_table_log2(4).unwrap();
        let values = smooth_series(5_000);
        let comp = fpc.compress_f64(&values).unwrap();
        // Decompressor reads the table size from the stream, so a
        // differently-configured instance can decode it.
        let back = Fpc::default().decompress_f64(&comp).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn invalid_table_log2_rejected() {
        assert!(Fpc::with_table_log2(0).is_err());
        assert!(Fpc::with_table_log2(29).is_err());
    }

    /// Seeded doubles in 32-value segments that rotate through a ramp
    /// (DFCM-exact, empty residuals), a smooth series with 24 noisy low
    /// bits, and random bit patterns; `len` bytes, ragged tail included.
    fn seeded_input(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        let mut out = Vec::with_capacity(len + 8);
        let mut i = 0u64;
        while out.len() < len {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let bits = match (i / 32) % 3 {
                0 => (i as f64).to_bits(),
                1 => ((i as f64 * 0.01).sin() * 1e3).to_bits() ^ (x >> 40),
                _ => x,
            };
            out.extend_from_slice(&bits.to_le_bytes());
            i += 1;
        }
        out.truncate(len);
        out
    }

    fn kat_input(len: usize) -> Vec<u8> {
        seeded_input(len, 0xF9C0_5EED ^ len as u64)
    }

    /// `(table_log2, input length, stream length, CRC-32 of the stream)` of
    /// `Codec::compress`, recorded before the tables moved into
    /// `FpcScratch`: the format is frozen, so these never change.
    const KNOWN_ANSWERS: [(u8, usize, usize, u32); 20] = [
        (4, 0, 11, 0xb659_ac3a),
        (4, 8, 12, 0x70bb_d879),
        (4, 2045, 1353, 0xaace_7294),
        (4, 2048, 1344, 0x60ca_4a1c),
        (4, 262_144, 182_852, 0xc128_b2b2),
        (12, 0, 11, 0x85b6_e25d),
        (12, 8, 12, 0xa35e_c3cc),
        (12, 2045, 1438, 0xfc7d_b0ed),
        (12, 2048, 1436, 0x5fb6_2ee3),
        (12, 262_144, 183_548, 0x623c_cfef),
        (20, 0, 11, 0xd187_30f4),
        (20, 8, 12, 0x0c00_e952),
        (20, 2045, 1558, 0x27e6_7a33),
        (20, 2048, 1554, 0x149a_b023),
        (20, 262_144, 185_299, 0xba68_0458),
        (22, 0, 11, 0x4618_21dd),
        (22, 8, 12, 0x4e25_ee2f),
        (22, 2045, 1585, 0xcad3_ca1c),
        (22, 2048, 1580, 0xd8e5_7bbb),
        (22, 262_144, 187_798, 0x9881_9fca),
    ];

    #[test]
    fn known_answers_pin_the_stream_bytes() {
        let mut scratch = CodecScratch::new();
        for (t, len, stream_len, stream_crc) in KNOWN_ANSWERS {
            let fpc = Fpc::with_table_log2(t).unwrap();
            let input = kat_input(len);
            for (how, stream) in [
                ("fresh", fpc.compress(&input).unwrap()),
                ("scratch", fpc.compress_with(&input, &mut scratch).unwrap()),
            ] {
                assert_eq!(
                    (stream.len(), crc32(&stream)),
                    (stream_len, stream_crc),
                    "table_log2 {t}, {len} bytes, {how} tables"
                );
            }
        }
    }

    /// Every slot a scratch keeps is zero.
    fn assert_tables_zero(scratch: &CodecScratch, after: &str) {
        let tables = &scratch.fpc;
        assert!(
            tables.fcm.iter().chain(&tables.dfcm).all(|&slot| slot == 0),
            "a kept slot is nonzero after {after}"
        );
        assert!(tables.fcm.len() <= 1 << KEEP_LOG2 && tables.dfcm.len() == tables.fcm.len());
    }

    #[test]
    fn one_scratch_matches_fresh_tables_across_mixed_calls_and_errors() {
        let mut scratch = CodecScratch::new();
        let mut out = Vec::new();
        // 7 is coprime to the 20 cases, so this visits each once with table
        // sizes and lengths interleaved.
        for step in 0..KNOWN_ANSWERS.len() {
            let (t, len, _, _) = KNOWN_ANSWERS[step * 7 % KNOWN_ANSWERS.len()];
            let fpc = Fpc::with_table_log2(t).unwrap();
            let input = kat_input(len);
            let case = format!("table_log2 {t}, {len} bytes");

            let stream = fpc.compress(&input).unwrap();
            assert_eq!(
                fpc.compress_with(&input, &mut scratch).unwrap(),
                stream,
                "{case}"
            );
            assert_tables_zero(&scratch, &format!("compressing {case}"));

            fpc.decompress_into(&stream, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, input, "{case}");
            assert_tables_zero(&scratch, &format!("decompressing {case}"));

            if len < 2045 {
                continue;
            }
            // A flipped residual byte decodes every double, wrongly, and
            // fails the CRC; a cut body fails part-way through the doubles.
            let mut flipped = stream.clone();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x40;
            let mut cut = stream[..stream.len() * 3 / 4].to_vec();
            cut.push(0);
            for (bad, what) in [(&flipped, "a CRC mismatch"), (&cut, "a truncated stream")] {
                let fresh = fpc.decompress(bad);
                let reused = fpc.decompress_into(bad, &mut scratch, &mut out);
                assert_eq!(reused, fresh.map(|_| ()), "{what} of {case}");
                assert_tables_zero(&scratch, &format!("{what} of {case}"));
            }
            assert!(matches!(
                fpc.decompress_into(&flipped, &mut scratch, &mut out),
                Err(CodecError::ChecksumMismatch { .. })
            ));
            assert_eq!(
                fpc.decompress_into(&cut, &mut scratch, &mut out),
                Err(CodecError::Truncated)
            );
        }
    }
}
