//! Linear-time suffix array construction (SA-IS).
//!
//! Nong, Zhang & Chan's induced-sorting algorithm. The public entry point
//! appends a virtual sentinel (smaller than every byte) so the Burrows–
//! Wheeler layer gets well-defined suffix order for arbitrary binary data.
//!
//! SA-IS runs exclusively on the encode side, over an encoder-owned copy
//! of the input. Loops that scan a whole array iterate it; the
//! induced-sorting passes, whose positions come from the partially built
//! suffix array itself, use checked access — every `get` succeeds by the
//! algorithm's invariants, and a miss would only skip a placement rather
//! than abort the process.

const EMPTY: u32 = u32::MAX;

/// Suffix array of `s`: the starting positions of all suffixes of `s`, in
/// lexicographic order (with an implicit terminal sentinel smaller than any
/// byte, which is dropped from the result).
pub fn suffix_array(s: &[u8]) -> Vec<u32> {
    if s.is_empty() {
        return Vec::new();
    }
    // Shift bytes by +1 so value 0 is free for the sentinel.
    let mut t: Vec<u32> = Vec::with_capacity(s.len() + 1);
    t.extend(s.iter().map(|&b| u32::from(b) + 1));
    t.push(0);
    let sa = sais(&t, 257);
    // sa[0] is the sentinel suffix; the rest is the answer.
    sa.get(1..).map(<[u32]>::to_vec).unwrap_or_default()
}

/// SA-IS over a u32 string whose alphabet is `0..k` and whose last character
/// is a unique minimal sentinel.
fn sais(s: &[u32], k: usize) -> Vec<u32> {
    let n = s.len();
    debug_assert!(n >= 1);
    if n == 1 {
        return vec![0];
    }
    if n == 2 {
        // Sentinel suffix sorts first.
        return vec![1, 0];
    }

    // Type classification: true = S-type. The sentinel is S.
    let mut is_s = vec![true; n];
    let mut next_is_s = true;
    for (ty, w) in is_s.iter_mut().zip(s.windows(2)).rev() {
        let &[c, next] = w else { continue };
        next_is_s = c < next || (c == next && next_is_s);
        *ty = next_is_s;
    }

    let mut bucket = vec![0u32; k];
    for &c in s {
        // Every character is below the alphabet size by construction.
        if let Some(count) = bucket.get_mut(c as usize) {
            *count += 1;
        }
    }

    // Left-most S positions, in text order.
    let lms_positions: Vec<u32> = is_s
        .windows(2)
        .enumerate()
        .filter(|(_, w)| matches!(w, &[false, true]))
        .map(|(i, _)| i as u32 + 1)
        .collect();

    // First pass: induce with LMS positions in arbitrary (text) order; this
    // sorts the LMS *substrings*.
    let sa = induce(s, &is_s, &bucket, &lms_positions);

    // Collect LMS suffixes in their induced order and name their substrings.
    let sorted_lms: Vec<u32> = sa
        .iter()
        .copied()
        .filter(|&j| {
            let j = j as usize;
            j > 0 && is_s.get(j) == Some(&true) && is_s.get(j - 1) == Some(&false)
        })
        .collect();
    debug_assert_eq!(sorted_lms.len(), lms_positions.len());

    let mut name_of = vec![EMPTY; n];
    let mut cur_name = 0u32;
    if let Some(slot) = sorted_lms
        .first()
        .and_then(|&first| name_of.get_mut(first as usize))
    {
        *slot = 0;
    }
    for w in sorted_lms.windows(2) {
        let &[a, b] = w else { continue };
        let (a, b) = (a as usize, b as usize);
        if !lms_substrings_equal(s, &is_s, a, b) {
            cur_name += 1;
        }
        if let Some(slot) = name_of.get_mut(b) {
            *slot = cur_name;
        }
    }
    let num_names = cur_name as usize + 1;

    let final_lms: Vec<u32> = if num_names == lms_positions.len() {
        // Every LMS substring is distinct: the induced order is already the
        // order of the LMS suffixes.
        sorted_lms
    } else {
        // Recurse on the reduced string of names (in text order).
        let reduced: Vec<u32> = lms_positions
            .iter()
            .filter_map(|&p| name_of.get(p as usize).copied())
            .collect();
        let reduced_sa = sais(&reduced, num_names);
        reduced_sa
            .iter()
            .filter_map(|&r| lms_positions.get(r as usize).copied())
            .collect()
    };

    induce(s, &is_s, &bucket, &final_lms)
}

/// One induced-sorting pass: seed LMS suffixes at bucket tails (in the order
/// given), induce L-type suffixes left-to-right from bucket heads, then
/// S-type right-to-left from bucket tails.
fn induce(s: &[u32], is_s: &[bool], bucket: &[u32], lms: &[u32]) -> Vec<u32> {
    let n = s.len();
    let k = bucket.len();
    let mut sa = vec![EMPTY; n];

    let heads = |out: &mut Vec<u32>| {
        out.clear();
        let mut sum = 0u32;
        for &b in bucket {
            out.push(sum);
            // Bucket counts sum to n, which fits u32 for any block the
            // encoder accepts.
            sum = sum.saturating_add(b);
        }
    };
    let tails = |out: &mut Vec<u32>| {
        out.clear();
        let mut sum = 0u32;
        for &b in bucket {
            sum = sum.saturating_add(b);
            out.push(sum);
        }
    };

    let mut ptr = Vec::with_capacity(k);

    // Seed LMS suffixes at the tails of their buckets, reading the provided
    // order backwards so the first LMS lands closest to its bucket tail.
    tails(&mut ptr);
    for &j in lms.iter().rev() {
        let Some(&c) = s.get(j as usize) else {
            continue;
        };
        let Some(slot) = ptr.get_mut(c as usize) else {
            continue;
        };
        *slot -= 1;
        let at = *slot as usize;
        if let Some(dst) = sa.get_mut(at) {
            *dst = j;
        }
    }

    // Induce L-type suffixes.
    heads(&mut ptr);
    for i in 0..n {
        let Some(&j) = sa.get(i) else { continue };
        if j != EMPTY && j > 0 {
            let p = (j - 1) as usize;
            if is_s.get(p) == Some(&false) {
                let Some(&c) = s.get(p) else {
                    continue;
                };
                let Some(slot) = ptr.get_mut(c as usize) else {
                    continue;
                };
                let at = *slot as usize;
                *slot += 1;
                if let Some(dst) = sa.get_mut(at) {
                    *dst = p as u32;
                }
            }
        }
    }

    // Induce S-type suffixes (overwrites the seeded LMS entries with the
    // correct final order).
    tails(&mut ptr);
    for i in (0..n).rev() {
        let Some(&j) = sa.get(i) else { continue };
        if j != EMPTY && j > 0 {
            let p = (j - 1) as usize;
            if is_s.get(p) == Some(&true) {
                let Some(&c) = s.get(p) else {
                    continue;
                };
                let Some(slot) = ptr.get_mut(c as usize) else {
                    continue;
                };
                *slot -= 1;
                let at = *slot as usize;
                if let Some(dst) = sa.get_mut(at) {
                    *dst = p as u32;
                }
            }
        }
    }
    sa
}

/// Compare the LMS substrings starting at `a` and `b` (positions of LMS
/// characters). An LMS substring runs to the next LMS position inclusive.
fn lms_substrings_equal(s: &[u32], is_s: &[bool], a: usize, b: usize) -> bool {
    if a == b {
        return true;
    }
    let n = s.len();
    // The substring containing the sentinel (which starts at n-1) is unique.
    if a == n - 1 || b == n - 1 {
        return false;
    }
    // An LMS boundary at `p`: S-type preceded by L-type (checked access
    // doubles as the `p < n` test).
    let lms_at = |p: usize| p > 0 && is_s.get(p) == Some(&true) && is_s.get(p - 1) == Some(&false);
    let mut i = 0usize;
    loop {
        let (pa, pb) = (a.saturating_add(i), b.saturating_add(i));
        let a_end = i > 0 && lms_at(pa);
        let b_end = i > 0 && lms_at(pb);
        if a_end && b_end {
            return s.get(pa) == s.get(pb);
        }
        if a_end != b_end {
            return false;
        }
        // Running off the end (get = None) or a character mismatch both end
        // the comparison; equal characters keep walking, so the loop always
        // advances toward the sentinel and terminates.
        match (s.get(pa), s.get(pb)) {
            (Some(x), Some(y)) if x == y => {}
            _ => return false,
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: sort suffix indices by the (sentinel-
    /// extended) suffixes themselves.
    fn naive_suffix_array(s: &[u8]) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..s.len() as u32).collect();
        idx.sort_by(|&a, &b| s[a as usize..].cmp(&s[b as usize..]));
        idx
    }

    fn check(s: &[u8]) {
        assert_eq!(suffix_array(s), naive_suffix_array(s), "input {s:?}");
    }

    #[test]
    fn classic_banana() {
        check(b"banana");
        // For the record: suffixes of "banana" sorted are
        // a(5), ana(3), anana(1), banana(0), na(4), nana(2).
        assert_eq!(suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn mississippi_and_friends() {
        check(b"mississippi");
        check(b"abracadabra");
        check(b"yabbadabbado");
    }

    #[test]
    fn degenerate_inputs() {
        check(b"");
        check(b"a");
        check(b"aa");
        check(b"ab");
        check(b"ba");
        check(b"aaaaaaaaaa");
        check(&[0u8, 0, 0]);
        check(&[255u8, 0, 255, 0]);
    }

    #[test]
    fn all_256_byte_values() {
        let s: Vec<u8> = (0..=255u8).rev().collect();
        check(&s);
    }

    #[test]
    fn random_strings_match_naive() {
        let mut x = 0x2545F491_4F6CDD1Du64;
        for trial in 0..40 {
            let len = 1 + (trial * 37) % 400;
            let alpha = [2usize, 4, 16, 256][trial % 4];
            let s: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    ((x >> 32) as usize % alpha) as u8
                })
                .collect();
            check(&s);
        }
    }

    #[test]
    fn periodic_strings_force_recursion() {
        check(&b"ab".repeat(100));
        check(&b"abc".repeat(64));
        check(&b"aab".repeat(50));
    }

    #[test]
    fn large_input_is_a_permutation() {
        let mut x = 99u64;
        let s: Vec<u8> = (0..200_000)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        let sa = suffix_array(&s);
        assert_eq!(sa.len(), s.len());
        let mut seen = vec![false; s.len()];
        for &p in &sa {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        // Spot-check sortedness on adjacent pairs.
        for w in sa.windows(2).step_by(997) {
            assert!(s[w[0] as usize..] < s[w[1] as usize..]);
        }
    }
}
