//! High/low byte-matrix split (§II-B).
//!
//! A chunk of N elements is viewed as an N×`element_size` byte matrix in
//! *big-endian* per-element order, so that byte column 0 is the sign +
//! high exponent byte regardless of host endianness. The matrix is split
//! into an N×`hi_bytes` high-order part (fed to the ID mapper) and an
//! N×`lo_bytes` low-order part (fed to ISOBAR). The decoder joins them
//! again in the split step of the fused pass ([`crate::reassemble`]).

use crate::error::{PrimacyError, Result};

/// Split little-endian element bytes into row-major high and low matrices.
///
/// `input.len()` must be a multiple of `element_size`.
pub fn split_hi_lo(
    input: &[u8],
    element_size: usize,
    hi_bytes: usize,
) -> Result<(Vec<u8>, Vec<u8>)> {
    if !input.len().is_multiple_of(element_size) {
        return Err(PrimacyError::InvalidInput(
            "byte length is not a multiple of the element size",
        ));
    }
    let n = input.len() / element_size;
    let lo_bytes = element_size - hi_bytes;
    let mut hi = vec![0u8; n * hi_bytes];
    let mut lo = vec![0u8; n * lo_bytes];
    if element_size == 8 && hi_bytes == 2 {
        // Hot path for f64: one u64 load per element, then exactly two wide
        // stores — a u16 for the hi pair and a u64 for the six lo bytes. The
        // lo store writes `(v << 16).to_be_bytes()`, whose last two bytes are
        // zero and land in the *next* element's lo slot, to be overwritten by
        // the next iteration; only the final element (whose slot has no
        // successor to spill into) takes the exact-width path.
        for i in 0..n.saturating_sub(1) {
            let mut a = [0u8; 8];
            a.copy_from_slice(&input[i * 8..i * 8 + 8]);
            let v = u64::from_le_bytes(a);
            hi[i * 2..i * 2 + 2].copy_from_slice(&((v >> 48) as u16).to_be_bytes());
            lo[i * 6..i * 6 + 8].copy_from_slice(&(v << 16).to_be_bytes());
        }
        if n > 0 {
            let i = n - 1;
            let mut a = [0u8; 8];
            a.copy_from_slice(&input[i * 8..i * 8 + 8]);
            let be = u64::from_le_bytes(a).to_be_bytes();
            hi[i * 2..i * 2 + 2].copy_from_slice(&be[0..2]);
            lo[i * 6..i * 6 + 6].copy_from_slice(&be[2..8]);
        }
        return Ok((hi, lo));
    }
    if element_size == 4 && hi_bytes == 1 {
        // Hot path for f32: one u32 load per element.
        for ((elem, h), l) in input
            .chunks_exact(4)
            .zip(hi.iter_mut())
            .zip(lo.chunks_exact_mut(3))
        {
            let mut a = [0u8; 4];
            a.copy_from_slice(elem); // chunks_exact(4) guarantees the length
            let be = u32::from_le_bytes(a).to_be_bytes();
            *h = be[0];
            l.copy_from_slice(&be[1..4]);
        }
        return Ok((hi, lo));
    }
    for ((elem, h), l) in input
        .chunks_exact(element_size)
        .zip(hi.chunks_exact_mut(hi_bytes))
        .zip(lo.chunks_exact_mut(lo_bytes))
    {
        // Big-endian order: most significant byte (sign+exponent) first.
        for (k, slot) in h.iter_mut().enumerate() {
            *slot = elem[element_size - 1 - k];
        }
        for (k, slot) in l.iter_mut().enumerate() {
            *slot = elem[element_size - 1 - hi_bytes - k];
        }
    }
    Ok((hi, lo))
}

/// Read the high-order byte-sequence of row `i` as an integer key
/// (`hi_bytes` ∈ {1, 2}).
#[inline]
pub fn hi_key(hi: &[u8], i: usize, hi_bytes: usize) -> u16 {
    match hi_bytes {
        1 => u16::from(hi[i]),
        2 => u16::from(hi[i * 2]) << 8 | u16::from(hi[i * 2 + 1]),
        #[expect(
            clippy::unreachable,
            reason = "hi_bytes is validated to 1 or 2 at every config/header boundary"
        )]
        _ => unreachable!("validated: hi_bytes is 1 or 2"),
    }
}

/// Write an integer key back as a high-order byte-sequence.
#[inline]
pub fn write_hi_key(out: &mut [u8], i: usize, hi_bytes: usize, key: u16) {
    match hi_bytes {
        1 => out[i] = key as u8,
        2 => {
            out[i * 2] = (key >> 8) as u8;
            out[i * 2 + 1] = key as u8;
        }
        #[expect(
            clippy::unreachable,
            reason = "hi_bytes is validated to 1 or 2 at every config/header boundary"
        )]
        _ => unreachable!("validated: hi_bytes is 1 or 2"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reassemble::reference::join;

    #[test]
    fn split_extracts_sign_and_exponent_bytes() {
        // 1.0f64 = 0x3FF0000000000000; the two big-endian high bytes are
        // 0x3F, 0xF0.
        let bytes = 1.0f64.to_le_bytes();
        let (hi, lo) = split_hi_lo(&bytes, 8, 2).unwrap();
        assert_eq!(hi, vec![0x3F, 0xF0]);
        assert_eq!(lo, vec![0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn split_join_roundtrip_f64() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64).sqrt() * -3.25).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (hi, lo) = split_hi_lo(&bytes, 8, 2).unwrap();
        assert_eq!(hi.len(), 500 * 2);
        assert_eq!(lo.len(), 500 * 6);
        assert_eq!(join(&hi, &lo, 8, 2), bytes);
    }

    #[test]
    fn split_join_roundtrip_f32_shape() {
        let bytes: Vec<u8> = (0..400u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let (hi, lo) = split_hi_lo(&bytes, 4, 1).unwrap();
        assert_eq!(hi.len(), 400);
        assert_eq!(lo.len(), 1200);
        assert_eq!(join(&hi, &lo, 4, 1), bytes);
    }

    #[test]
    fn ragged_input_rejected() {
        assert!(split_hi_lo(&[1, 2, 3], 8, 2).is_err());
    }

    #[test]
    fn hi_key_roundtrip() {
        let mut buf = vec![0u8; 6];
        for (i, key) in [(0usize, 0x1234u16), (1, 0), (2, 0xFFFF)] {
            write_hi_key(&mut buf, i, 2, key);
            assert_eq!(hi_key(&buf, i, 2), key);
        }
        let mut buf = vec![0u8; 3];
        for (i, key) in [(0usize, 0x12u16), (1, 0xFF), (2, 1)] {
            write_hi_key(&mut buf, i, 1, key);
            assert_eq!(hi_key(&buf, i, 1), key);
        }
    }

    #[test]
    fn fast_paths_match_scalar_layout() {
        // (8,2) and (4,1) take word-wise paths with an overlapping-store
        // tail; (8,3) takes the generic loop. All must agree with the scalar
        // big-endian layout definition, including n = 1 (tail only) and
        // n = 2 (one overlapping store + tail).
        for (es, hb, n) in [
            (8usize, 2usize, 1usize),
            (8, 2, 2),
            (8, 2, 97),
            (4, 1, 1),
            (4, 1, 50),
            (8, 3, 40),
        ] {
            let input: Vec<u8> = (0..n * es).map(|i| (i * 37 % 256) as u8).collect();
            let (hi, lo) = split_hi_lo(&input, es, hb).unwrap();
            for r in 0..n {
                let elem = &input[r * es..(r + 1) * es];
                for k in 0..hb {
                    assert_eq!(hi[r * hb + k], elem[es - 1 - k], "{es},{hb} hi r={r} k={k}");
                }
                for k in 0..es - hb {
                    assert_eq!(
                        lo[r * (es - hb) + k],
                        elem[es - 1 - hb - k],
                        "{es},{hb} lo r={r} k={k}"
                    );
                }
            }
            assert_eq!(join(&hi, &lo, es, hb), input, "{es},{hb},{n}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (hi, lo) = split_hi_lo(&[], 8, 2).unwrap();
        assert!(hi.is_empty() && lo.is_empty());
    }

    #[test]
    fn exponent_byte_regularity_shows_in_hi() {
        // Values in a narrow range share their exponent byte: hi columns
        // must have far fewer unique values than lo columns.
        let values: Vec<f64> = (0..2000).map(|i| 1.0 + (i as f64) * 1e-7).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (hi, _lo) = split_hi_lo(&bytes, 8, 2).unwrap();
        let mut uniq: Vec<u16> = (0..2000).map(|i| hi_key(&hi, i, 2)).collect();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() < 10, "{} unique hi sequences", uniq.len());
    }
}
