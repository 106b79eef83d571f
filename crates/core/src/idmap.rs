//! The frequency-ranked bijective ID mapping (§II-C) and its serialized
//! index (§II-F).
//!
//! The most frequent high-order byte-sequence is assigned ID 0, the next
//! most frequent ID 1, and so on. Because IDs are emitted as `hi_bytes`-wide
//! big-endian integers, low IDs translate to runs of 0-bytes: the paper
//! reports this raises the frequency of the most common byte by ~15 % on
//! average across its 20 datasets.

use crate::error::{PrimacyError, Result};
use crate::freq::FreqTable;
use crate::split::{hi_key, write_hi_key};

/// A bijection between the byte-sequences present in a chunk and dense IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMap {
    /// `seq_for_id[id]` = original byte-sequence.
    seq_for_id: Vec<u16>,
    /// `id_for_seq[seq]` = ID, or `u16::MAX` when the sequence is absent.
    id_for_seq: Vec<u16>,
    hi_bytes: usize,
}

/// Sentinel for "sequence not present in this chunk".
const ABSENT: u16 = u16::MAX;

impl IdMap {
    /// Build the map from a chunk's frequency table.
    pub fn from_freq(freq: &FreqTable, hi_bytes: usize) -> Result<Self> {
        Self::from_ranked(freq.ranked(), hi_bytes)
    }

    /// Build from an explicit sequence ranking (ID i ↦ `ranked[i]`).
    pub fn from_ranked(ranked: Vec<u16>, hi_bytes: usize) -> Result<Self> {
        let domain = 1usize << (8 * hi_bytes);
        if ranked.len() >= ABSENT as usize && hi_bytes == 2 {
            // 65535 distinct sequences would collide with the sentinel; with
            // a full 65536-value domain the mapping buys nothing anyway.
            return Err(PrimacyError::InvalidInput(
                "chunk uses the full byte-sequence domain; ID mapping degenerate",
            ));
        }
        let mut id_for_seq = vec![ABSENT; domain];
        for (id, &seq) in ranked.iter().enumerate() {
            if (seq as usize) >= domain {
                return Err(PrimacyError::Format("index sequence exceeds domain"));
            }
            if id_for_seq[seq as usize] != ABSENT {
                return Err(PrimacyError::Format("duplicate sequence in index"));
            }
            id_for_seq[seq as usize] = id as u16;
        }
        Ok(Self {
            seq_for_id: ranked,
            id_for_seq,
            hi_bytes,
        })
    }

    /// Number of mapped sequences.
    pub fn len(&self) -> usize {
        self.seq_for_id.len()
    }

    /// True when no sequences are mapped (empty chunk).
    pub fn is_empty(&self) -> bool {
        self.seq_for_id.is_empty()
    }

    /// ID for a sequence, if present.
    #[inline]
    pub fn id_of(&self, seq: u16) -> Option<u16> {
        match self.id_for_seq[seq as usize] {
            ABSENT => None,
            id => Some(id),
        }
    }

    /// Sequence for an ID, if in range.
    #[inline]
    pub fn seq_of(&self, id: u16) -> Option<u16> {
        self.seq_for_id.get(id as usize).copied()
    }

    /// Rewrite a row-major high matrix in place: every byte-sequence becomes
    /// its ID. Fails only if a sequence is unmapped (possible when reusing a
    /// stale index under [`crate::IndexPolicy::Reuse`]).
    pub fn encode_hi(&self, hi: &mut [u8]) -> Result<()> {
        if self.hi_bytes == 2 {
            for row in hi.chunks_exact_mut(2) {
                let seq = u16::from_be_bytes([row[0], row[1]]) as usize;
                let id = self.id_for_seq[seq];
                if id == ABSENT {
                    return Err(PrimacyError::Format("sequence missing from index"));
                }
                row.copy_from_slice(&id.to_be_bytes());
            }
            return Ok(());
        }
        let n = hi.len() / self.hi_bytes;
        for i in 0..n {
            let seq = hi_key(hi, i, self.hi_bytes);
            let id = self
                .id_of(seq)
                .ok_or(PrimacyError::Format("sequence missing from index"))?;
            write_hi_key(hi, i, self.hi_bytes, id);
        }
        Ok(())
    }

    /// Check every sequence of a high matrix is covered (used to decide
    /// whether a previous index can be reused without re-encoding).
    pub fn covers(&self, hi: &[u8]) -> bool {
        let n = hi.len() / self.hi_bytes;
        (0..n).all(|i| self.id_of(hi_key(hi, i, self.hi_bytes)).is_some())
    }

    /// Inverse of [`IdMap::encode_hi`].
    pub fn decode_hi(&self, hi: &mut [u8]) -> Result<()> {
        if self.hi_bytes == 2 {
            let table = &self.seq_for_id;
            for row in hi.chunks_exact_mut(2) {
                let id = u16::from_be_bytes([row[0], row[1]]) as usize;
                let seq = *table
                    .get(id)
                    .ok_or(PrimacyError::Format("ID out of index range"))?;
                row.copy_from_slice(&seq.to_be_bytes());
            }
            return Ok(());
        }
        let n = hi.len() / self.hi_bytes;
        for i in 0..n {
            let id = hi_key(hi, i, self.hi_bytes);
            let seq = self
                .seq_of(id)
                .ok_or(PrimacyError::Format("ID out of index range"))?;
            write_hi_key(hi, i, self.hi_bytes, seq);
        }
        Ok(())
    }

    /// Serialize the index: the sequences in ID order, `hi_bytes` each,
    /// big-endian.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        for &seq in &self.seq_for_id {
            match self.hi_bytes {
                1 => out.push(seq as u8),
                _ => out.extend_from_slice(&seq.to_be_bytes()),
            }
        }
    }

    /// A placeholder map with no sequences, suitable only as a target for
    /// [`IdMap::reload`]. Consistent (every lookup reports absent) but tiny:
    /// the full-size `id_for_seq` table is grown on first reload.
    pub(crate) fn placeholder() -> Self {
        Self {
            seq_for_id: Vec::new(),
            id_for_seq: vec![ABSENT; 1 << 8],
            hi_bytes: 1,
        }
    }

    /// Load the serialized index of `k` sequences (the bytes
    /// [`IdMap::serialize`] writes) into `self`, reusing its tables. This is
    /// the one parser of untrusted index bytes: it rejects a size mismatch
    /// and a duplicate sequence. Clearing costs
    /// O(previous k) — the previous `seq_for_id` says exactly which
    /// `id_for_seq` slots are live — so a warm reload touches no memory
    /// proportional to the 65 536-entry domain and performs no allocations.
    ///
    /// On error `self` is restored to a consistent empty state, never left
    /// half-loaded.
    pub fn reload(&mut self, bytes: &[u8], k: usize, hi_bytes: usize) -> Result<()> {
        if bytes.len() != k * hi_bytes {
            return Err(PrimacyError::Format("index size mismatch"));
        }
        let domain = 1usize << (8 * hi_bytes);
        if k >= ABSENT as usize && hi_bytes == 2 {
            return Err(PrimacyError::InvalidInput(
                "chunk uses the full byte-sequence domain; ID mapping degenerate",
            ));
        }
        for &seq in &self.seq_for_id {
            if let Some(slot) = self.id_for_seq.get_mut(seq as usize) {
                *slot = ABSENT;
            }
        }
        self.seq_for_id.clear();
        self.id_for_seq.resize(domain, ABSENT);
        self.hi_bytes = hi_bytes;
        for i in 0..k {
            let seq = match hi_bytes {
                1 => u16::from(bytes[i]),
                _ => u16::from_be_bytes([bytes[i * 2], bytes[i * 2 + 1]]),
            };
            let dup = {
                let slot = &mut self.id_for_seq[seq as usize];
                let dup = *slot != ABSENT;
                *slot = i as u16;
                dup
            };
            if dup {
                // Roll back what this call loaded so the invariant
                // (id_for_seq[s] set ⇔ s ∈ seq_for_id) still holds.
                self.id_for_seq[seq as usize] = ABSENT;
                for &s in &self.seq_for_id {
                    self.id_for_seq[s as usize] = ABSENT;
                }
                self.seq_for_id.clear();
                return Err(PrimacyError::Format("duplicate sequence in index"));
            }
            self.seq_for_id.push(seq);
        }
        Ok(())
    }

    /// Size of the serialized index in bytes.
    pub fn serialized_len(&self) -> usize {
        self.seq_for_id.len() * self.hi_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FreqTable;

    fn hi_from_keys(keys: &[u16]) -> Vec<u8> {
        keys.iter()
            .flat_map(|&k| [(k >> 8) as u8, k as u8])
            .collect()
    }

    fn map_for(keys: &[u16]) -> IdMap {
        let hi = hi_from_keys(keys);
        let f = FreqTable::from_hi_matrix(&hi, 2);
        IdMap::from_freq(&f, 2).unwrap()
    }

    #[test]
    fn most_frequent_gets_id_zero() {
        let m = map_for(&[0x3FF0, 0x3FF0, 0x3FF0, 0x4000, 0x4000, 0xC000]);
        assert_eq!(m.id_of(0x3FF0), Some(0));
        assert_eq!(m.id_of(0x4000), Some(1));
        assert_eq!(m.id_of(0xC000), Some(2));
        assert_eq!(m.id_of(0x1234), None);
        assert_eq!(m.seq_of(0), Some(0x3FF0));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keys = [0x3FF0u16, 0x4000, 0x3FF0, 0xBFF0, 0x3FF0, 0x4000];
        let mut hi = hi_from_keys(&keys);
        let original = hi.clone();
        let m = map_for(&keys);
        m.encode_hi(&mut hi).unwrap();
        assert_ne!(hi, original);
        // Most frequent sequence (0x3FF0) must have become ID 0 = two
        // zero bytes.
        assert_eq!(&hi[0..2], &[0, 0]);
        m.decode_hi(&mut hi).unwrap();
        assert_eq!(hi, original);
    }

    #[test]
    fn encoding_increases_zero_byte_frequency() {
        // Skewed sequences from a realistic exponent range.
        let keys: Vec<u16> = (0..5000)
            .map(|i| 0x3FF0 + (i % 7) as u16 * ((i % 23) as u16 / 20))
            .collect();
        let mut hi = hi_from_keys(&keys);
        let zeros_before = hi.iter().filter(|&&b| b == 0).count();
        let m = map_for(&keys);
        m.encode_hi(&mut hi).unwrap();
        let zeros_after = hi.iter().filter(|&&b| b == 0).count();
        assert!(
            zeros_after > zeros_before + hi.len() / 2,
            "zeros {zeros_before} -> {zeros_after}"
        );
    }

    #[test]
    fn serialize_reload_roundtrip() {
        let m = map_for(&[9, 9, 9, 7, 7, 1, 2, 2, 2, 2]);
        let mut buf = Vec::new();
        m.serialize(&mut buf);
        assert_eq!(buf.len(), m.serialized_len());
        let mut back = IdMap::placeholder();
        back.reload(&buf, m.len(), 2).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn reload_rejects_bad_sizes_and_duplicates() {
        let mut scratch = IdMap::placeholder();
        assert!(scratch.reload(&[0, 1, 0], 2, 2).is_err());
        // Duplicate sequence 0x0001 twice.
        assert!(scratch.reload(&[0, 1, 0, 1], 2, 2).is_err());
    }

    #[test]
    fn covers_detects_unmapped_sequences() {
        let m = map_for(&[1, 1, 2]);
        assert!(m.covers(&hi_from_keys(&[1, 2, 2, 1])));
        assert!(!m.covers(&hi_from_keys(&[1, 3])));
    }

    #[test]
    fn encode_fails_on_unmapped_sequence() {
        let m = map_for(&[1, 1, 2]);
        let mut hi = hi_from_keys(&[1, 5]);
        assert!(m.encode_hi(&mut hi).is_err());
    }

    #[test]
    fn one_byte_hi_mapping() {
        let hi = vec![200u8, 200, 10, 10, 10, 30];
        let f = FreqTable::from_hi_matrix(&hi, 1);
        let m = IdMap::from_freq(&f, 1).unwrap();
        assert_eq!(m.id_of(10), Some(0));
        assert_eq!(m.id_of(200), Some(1));
        assert_eq!(m.id_of(30), Some(2));
        let mut data = hi.clone();
        m.encode_hi(&mut data).unwrap();
        assert_eq!(data, vec![1, 1, 0, 0, 0, 2]);
        m.decode_hi(&mut data).unwrap();
        assert_eq!(data, hi);
        let mut buf = Vec::new();
        m.serialize(&mut buf);
        let mut back = IdMap::placeholder();
        back.reload(&buf, 3, 1).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn empty_map() {
        let m = IdMap::from_ranked(vec![], 2).unwrap();
        assert!(m.is_empty());
        let mut empty: Vec<u8> = vec![];
        m.encode_hi(&mut empty).unwrap();
    }

    #[test]
    fn reload_matches_from_ranked_across_widths() {
        let mut scratch = IdMap::placeholder();
        // Successive reloads with different k, contents, and widths must land
        // on exactly the map `from_ranked` builds from the same ranking,
        // decoded here independently of `reload`.
        let cases: [(&[u8], usize, usize); 4] = [
            (&[0x3F, 0xF0, 0x40, 0x00, 0xC0, 0x00], 3, 2),
            (&[0x40, 0x00, 0x3F, 0xF0], 2, 2),
            (&[10, 200, 30], 3, 1),
            (&[], 0, 2),
        ];
        for (bytes, k, hi_bytes) in cases {
            scratch.reload(bytes, k, hi_bytes).unwrap();
            let ranked: Vec<u16> = bytes
                .chunks(hi_bytes)
                .map(|seq| seq.iter().fold(0, |acc, &b| (acc << 8) | u16::from(b)))
                .collect();
            assert_eq!(ranked.len(), k);
            assert_eq!(scratch, IdMap::from_ranked(ranked, hi_bytes).unwrap());
        }
    }

    #[test]
    fn reload_error_leaves_consistent_empty_map() {
        let mut scratch = IdMap::placeholder();
        scratch.reload(&[0x3F, 0xF0, 0x40, 0x00], 2, 2).unwrap();
        // Duplicate sequence: must fail and roll back to an empty map whose
        // lookups all report absent (no stale IDs from the failed load or
        // the previous one).
        assert!(scratch.reload(&[0, 1, 0, 1], 2, 2).is_err());
        assert!(scratch.is_empty());
        assert_eq!(scratch.id_of(0x3FF0), None);
        assert_eq!(scratch.id_of(0x0001), None);
        // And the scratch is still reusable afterwards.
        scratch.reload(&[0xAB, 0xCD], 1, 2).unwrap();
        assert_eq!(scratch.id_of(0xABCD), Some(0));
    }
}
