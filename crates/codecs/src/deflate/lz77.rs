//! LZ77 match finding with hash chains and lazy evaluation.
//!
//! This mirrors zlib's deflate strategy — hashed candidate positions, a
//! searcher that walks at most `max_chain` links and stops early once a match
//! of `nice_length` is found, and (at higher levels) one-position deferral of
//! a match when the next position starts a longer one ("lazy matching") —
//! with three libdeflate-style throughput upgrades on top:
//!
//! * **split hash3/hash4 dictionary** (the `hc_matchfinder` layout): chains
//!   are keyed by a 16-bit hash of the next *four* bytes, so every link in a
//!   chain shares a 4-byte prefix with the search position and chains stay
//!   short even when some 3-byte pattern saturates the input. Length-3
//!   matches are still found — through a separate most-recent-occurrence
//!   table keyed by a 15-bit 3-byte hash, probed once per search with no
//!   chain behind it. On the hi-plane residual streams this replaces
//!   budget-capped 128-link walks over 3-byte collision chains with a probe
//!   plus a handful of genuine 4-byte-prefix candidates;
//! * **word-at-a-time match extension**: candidate comparisons proceed eight
//!   bytes per step via `u64` loads and `trailing_zeros` on the XOR, with a
//!   scalar tail, instead of byte-by-byte;
//! * **adaptive skip-ahead**: after a run of consecutive literals (no match
//!   found), the scanner starts stepping over positions — the step grows with
//!   the run and is capped at [`MAX_SKIP`] — inserting hash entries only at
//!   the positions it actually visits. ISOBAR-classified-incompressible
//!   low-order bytes therefore fall through at near-`memcpy` speed instead of
//!   paying a hash insert + chain walk per byte. The trade-off: a match whose
//!   start lands on a skipped position is missed, costing a few literals of
//!   ratio on data that alternates incompressible stretches with sudden
//!   repetition (see `Level::params` for the per-level trigger; `Best`
//!   disables skipping entirely).
//!
//! On top of these, the search skips work whose outcome is already decided,
//! so the tokens are exactly those of the plain search: a 4-byte quick
//! reject in the chain walk, zlib's lazy search seeded with the pending
//! match's length (clamped below `nice_length`, see
//! `EncoderScratch::longest_match`), and one hash computation per parsed
//! position, shared by its search and its insert.
//!
//! All per-input state (hash heads, chain links, the token buffer) lives in a
//! reusable [`EncoderScratch`] so steady-state encoding performs no heap
//! allocation per chunk — the pipeline keeps one scratch per worker thread.

use super::{Level, MAX_MATCH, MIN_MATCH, WINDOW_SIZE};

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match {
        /// Match length in `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Distance in `1..=WINDOW_SIZE`.
        dist: u16,
    },
}

const HASH3_BITS: u32 = 15;
const HASH3_SIZE: usize = 1 << HASH3_BITS;
const HASH4_BITS: u32 = 16;
const HASH4_SIZE: usize = 1 << HASH4_BITS;
const NO_POS: u32 = u32::MAX;
/// Upper bound on the skip-ahead step: at most one position in `MAX_SKIP` is
/// hashed/searched once a literal run has fully ramped up.
const MAX_SKIP: usize = 32;
/// The skip step grows by one every `2^SKIP_RAMP_SHIFT` literals past the
/// trigger, so ratio degrades gradually at the start of a literal run.
const SKIP_RAMP_SHIFT: u32 = 5;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from(data[i]) << 16 | u32::from(data[i + 1]) << 8 | u32::from(data[i + 2]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH3_BITS)) as usize
}

/// Hash of the four bytes at `i` (caller guarantees `i + 4 <= data.len()`).
#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    (load_u32(data, i).wrapping_mul(0x9E37_79B1) >> (32 - HASH4_BITS)) as usize
}

/// The hash3 and hash4 keys of position `i`, computed once per parsed
/// position and shared by its search and its insert. A key whose bytes run
/// past the input is never read (both users check the remaining length
/// first), so it is left 0.
#[inline]
fn keys(data: &[u8], i: usize) -> (usize, usize) {
    let remaining = data.len() - i;
    let h3 = if remaining >= MIN_MATCH {
        hash3(data, i)
    } else {
        0
    };
    let h4 = if remaining >= 4 { hash4(data, i) } else { 0 };
    (h3, h4)
}

/// Load four little-endian bytes starting at `i` (caller guarantees
/// `i + 4 <= data.len()`).
#[inline]
fn load_u32(data: &[u8], i: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&data[i..i + 4]);
    u32::from_le_bytes(a)
}

/// Load eight little-endian bytes starting at `i` (caller guarantees
/// `i + 8 <= data.len()`).
#[inline]
fn load_u64(data: &[u8], i: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&data[i..i + 8]);
    u64::from_le_bytes(a)
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len`. Compares eight bytes per iteration; the first differing byte is
/// located with `trailing_zeros` on the XOR of the two words. The caller
/// guarantees `b + max_len <= data.len()` and `a < b`.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let mut l = 0;
    while l + 8 <= max_len {
        let x = load_u64(data, a + l) ^ load_u64(data, b + l);
        if x != 0 {
            return l + (x.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while l < max_len && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Skip-ahead step for the current literal run: 1 below the trigger, then a
/// ramp that adds one position per `2^SKIP_RAMP_SHIFT` skipped literals,
/// capped at [`MAX_SKIP`].
#[inline]
fn skip_step(lit_run: usize, trigger: usize) -> usize {
    if lit_run < trigger {
        1
    } else {
        (((lit_run - trigger) >> SKIP_RAMP_SHIFT) + 2).min(MAX_SKIP)
    }
}

/// Reusable match-finder state: hash tables, chain links, the token buffer.
///
/// Constructing the hash dictionary used to cost fresh head-table allocations
/// plus a 4-bytes-per-input-byte `prev` allocation per chunk; a scratch is
/// allocated once and reused, so steady-state encoding (same or smaller chunk
/// size) performs **zero** heap allocations in the tokenizer — `prepare` only
/// memsets the head tables and the token buffer keeps its capacity across
/// [`tokenize_into`] calls. `prev` entries are never cleared: only positions
/// inserted for the *current* input are reachable from `head4`, so stale
/// links from earlier chunks are dead by construction.
#[derive(Debug, Default)]
pub struct EncoderScratch {
    /// Most recent position for each 3-byte hash — probed once, no chain.
    head3: Vec<u32>,
    /// Chain head for each 4-byte hash.
    head4: Vec<u32>,
    /// Chain links: `prev[i]` is the previous position sharing `i`'s hash4.
    prev: Vec<u32>,
    pub(crate) tokens: Vec<Token>,
    /// Dynamic-header build buffers, reused by the block emitter.
    pub(crate) header: super::encode::HeaderScratch,
}

impl EncoderScratch {
    /// An empty scratch; arrays are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tokens produced by the most recent [`tokenize_into`] call.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// Split-borrow the token slice and the header scratch, so the block
    /// emitter can read tokens while mutating its header buffers.
    pub(crate) fn parts(&mut self) -> (&[Token], &mut super::encode::HeaderScratch) {
        (&self.tokens, &mut self.header)
    }

    /// Reset the dictionary for a new input of `len` bytes. Allocates only
    /// when `len` exceeds every previous input length.
    fn prepare(&mut self, len: usize) {
        if self.head3.is_empty() {
            self.head3 = vec![NO_POS; HASH3_SIZE];
            self.head4 = vec![NO_POS; HASH4_SIZE];
        } else {
            self.head3.fill(NO_POS);
            self.head4.fill(NO_POS);
        }
        if self.prev.len() < len {
            self.prev.resize(len, NO_POS);
        }
        self.tokens.clear();
    }

    /// Record position `i` in the dictionary: it becomes the most recent
    /// occurrence of its 3-byte hash and (when four bytes remain) the head of
    /// its hash4 chain.
    #[inline]
    fn insert(&mut self, data: &[u8], i: usize) {
        self.insert_keyed(data.len(), i, keys(data, i));
    }

    /// [`Self::insert`] for a position of an `n`-byte input whose [`keys`]
    /// the caller already computed for its search.
    #[inline]
    fn insert_keyed(&mut self, n: usize, i: usize, (h3, h4): (usize, usize)) {
        if i + MIN_MATCH > n {
            return;
        }
        self.head3[h3] = i as u32;
        if i + 4 <= n {
            self.prev[i] = self.head4[h4];
            self.head4[h4] = i as u32;
        }
    }

    /// Find the longest match for position `i`, for a parse that holds a
    /// pending match of length `prev_len` (0 when none is) and takes it
    /// unless the result is longer: one probe of the hash3 most-recent table
    /// (the only source of length-3 matches), then a walk of at most
    /// `max_chain` hash4-chain candidates. `keys` are position `i`'s
    /// [`keys`]. Returns `(len, dist, links_walked)`. Whenever an unseeded
    /// search (`prev_len` 0) would find a match longer than `prev_len`, this
    /// returns that same match; otherwise `len <= prev_len`, and `len == 0`
    /// when no candidate beat the seed or none reached `MIN_MATCH`.
    fn longest_match(
        &self,
        data: &[u8],
        i: usize,
        (h3, h4): (usize, usize),
        p: &super::MatchParams,
        prev_len: usize,
    ) -> (usize, usize, u32) {
        let remaining = data.len() - i;
        let max_len = remaining.min(MAX_MATCH);
        // No match here can be longer than the pending one: the caller takes
        // that one whatever the search would find.
        if remaining < MIN_MATCH || prev_len >= max_len {
            return (0, 0, 0);
        }
        let nice = p.nice_length.min(max_len);
        let window_floor = i.saturating_sub(WINDOW_SIZE);
        // zlib's seeded search: a candidate counts only if it beats the
        // pending match. The seed stays below `nice`, so the walk stops at
        // the same candidate as an unseeded one (the first of length >=
        // `nice`); seeding at a pending length >= `nice` would walk past a
        // candidate that stops the unseeded search and could return a
        // different, later match.
        let mut best_len = prev_len.max(MIN_MATCH - 1).min(nice - 1);
        let mut best_dist = 0usize;
        let mut links = 0u32;

        // hash3 probe: the single most recent 3-byte-hash occurrence. The
        // hash4 chains below can only yield 4-byte-prefix candidates, so this
        // probe is what keeps length-3 matches representable.
        let c3 = self.head3[h3];
        if c3 != NO_POS {
            let c = c3 as usize;
            // `c >= i` would be a self-reference (possible when the caller
            // pre-inserted positions); skip it rather than match in place.
            if c < i && c >= window_floor {
                links += 1;
                let l = match_len(data, c, i, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l >= nice {
                        return (best_len, best_dist, links);
                    }
                }
            }
        }

        if remaining >= 4 {
            let mut cand = self.head4[h4];
            // Every visited candidate spends search budget — including
            // self-referential entries — so a pathological chain cannot
            // exceed the configured budget.
            let mut chain_left = p.max_chain;
            while cand != NO_POS && chain_left > 0 {
                chain_left -= 1;
                links += 1;
                let c = cand as usize;
                if c >= i {
                    cand = self.prev[c];
                    continue;
                }
                if c < window_floor {
                    break;
                }
                // Quick reject: a longer match must agree on the bytes that
                // end at `best_len`, so compare the four of them (one byte
                // while `best_len < 3`) before paying for a full comparison.
                // In-bounds because best_len < max_len here (a best_len ==
                // max_len match already hit `nice` and returned/broke out).
                let may_beat = if best_len >= 3 {
                    load_u32(data, c + best_len - 3) == load_u32(data, i + best_len - 3)
                } else {
                    data[c + best_len] == data[i + best_len]
                };
                if may_beat {
                    let l = match_len(data, c, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l >= nice {
                            break;
                        }
                    }
                }
                cand = self.prev[c];
            }
        }
        if best_dist > 0 {
            (best_len, best_dist, links)
        } else {
            (0, 0, links)
        }
    }
}

/// Run LZ77 over `input`, returning a fresh token stream. Convenience wrapper
/// over [`tokenize_into`] for one-shot callers; hot paths should hold an
/// [`EncoderScratch`] and avoid the per-call allocations.
pub fn tokenize(input: &[u8], level: Level) -> Vec<Token> {
    let mut scratch = EncoderScratch::new();
    tokenize_into(input, level, &mut scratch);
    std::mem::take(&mut scratch.tokens)
}

/// Run LZ77 over `input`, leaving the token stream in `scratch.tokens()`.
/// Reuses every buffer in `scratch`; steady state allocates nothing.
pub fn tokenize_into(input: &[u8], level: Level, scratch: &mut EncoderScratch) {
    let p = level.params();
    let n = input.len();
    scratch.prepare(n);
    if n == 0 {
        return;
    }
    scratch.tokens.reserve(n / 3 + 16);
    if p.lazy {
        tokenize_lazy(input, scratch, &p);
    } else {
        tokenize_greedy(input, scratch, &p);
    }
}

/// Emit literals for `data[i..end]` (the skip-ahead fallthrough), observing
/// the skip histogram when more than one position is covered.
#[inline]
fn push_literals(tokens: &mut Vec<Token>, data: &[u8], i: usize, end: usize) {
    // Slice-iterator `extend` hits the `TrustedLen` specialization: one
    // reservation and no per-element capacity check. On incompressible
    // planes nearly every input byte passes through here, so the per-push
    // branch is a measurable share of tokenize time.
    tokens.extend(data[i..end].iter().map(|&b| Token::Literal(b)));
    if end - i > 1 {
        primacy_trace::observe("deflate.skip", (end - i) as u64);
    }
}

fn tokenize_greedy(data: &[u8], scratch: &mut EncoderScratch, p: &super::MatchParams) {
    let n = data.len();
    let mut i = 0;
    let mut lit_run = 0usize;
    while i < n {
        let keys = keys(data, i);
        let (mlen, mdist, links) = scratch.longest_match(data, i, keys, p, 0);
        if links > 0 {
            primacy_trace::observe("deflate.chain_len", u64::from(links));
        }
        scratch.insert_keyed(n, i, keys);
        if mlen >= MIN_MATCH {
            scratch.tokens.push(Token::Match {
                len: mlen as u16,
                dist: mdist as u16,
            });
            for j in i + 1..i + mlen {
                scratch.insert(data, j);
            }
            i += mlen;
            lit_run = 0;
        } else {
            let end = (i + skip_step(lit_run, p.skip_trigger)).min(n);
            push_literals(&mut scratch.tokens, data, i, end);
            lit_run += end - i;
            i = end;
        }
    }
}

fn tokenize_lazy(data: &[u8], scratch: &mut EncoderScratch, p: &super::MatchParams) {
    let n = data.len();
    let mut i = 0;
    let mut lit_run = 0usize;
    // A match found at position i-1 that we deferred by one byte.
    let mut pending: Option<(usize, usize)> = None;
    while i < n {
        let keys = keys(data, i);
        let plen = pending.map_or(0, |(plen, _)| plen);
        let (mlen, mdist, links) = scratch.longest_match(data, i, keys, p, plen);
        if links > 0 {
            primacy_trace::observe("deflate.chain_len", u64::from(links));
        }
        scratch.insert_keyed(n, i, keys);
        match pending {
            Some((plen, pdist)) if mlen <= plen => {
                // The deferred match is at least as good: take it. Where
                // nothing longer exists the search returns `mlen <= plen`,
                // usually 0.
                scratch.tokens.push(Token::Match {
                    len: plen as u16,
                    dist: pdist as u16,
                });
                let end = i - 1 + plen;
                for j in i + 1..end {
                    scratch.insert(data, j);
                }
                i = end;
                pending = None;
                lit_run = 0;
            }
            Some(_) => {
                // Current match is strictly longer: the byte at i-1 becomes a
                // literal and the new match is deferred in turn.
                scratch.tokens.push(Token::Literal(data[i - 1]));
                pending = Some((mlen, mdist));
                i += 1;
                lit_run = 0;
            }
            None => {
                if mlen >= p.nice_length {
                    // Good enough that lazy deferral cannot pay off.
                    scratch.tokens.push(Token::Match {
                        len: mlen as u16,
                        dist: mdist as u16,
                    });
                    for j in i + 1..i + mlen {
                        scratch.insert(data, j);
                    }
                    i += mlen;
                    lit_run = 0;
                } else if mlen >= MIN_MATCH {
                    pending = Some((mlen, mdist));
                    i += 1;
                    lit_run = 0;
                } else {
                    let end = (i + skip_step(lit_run, p.skip_trigger)).min(n);
                    push_literals(&mut scratch.tokens, data, i, end);
                    lit_run += end - i;
                    i = end;
                }
            }
        }
    }
    if let Some((plen, pdist)) = pending {
        scratch.tokens.push(Token::Match {
            len: plen as u16,
            dist: pdist as u16,
        });
    }
}

/// Expand a token stream back to bytes (used by tests and by the encoder's
/// internal consistency checks). Match copies proceed in overlap-safe wide
/// chunks — each pass copies as much as the already-materialized suffix
/// allows, so a `dist < len` RLE-style reference doubles its copied span per
/// pass instead of moving byte by byte.
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                assert!(
                    dist >= 1 && dist <= out.len(),
                    "match reaches before stream start"
                );
                let start = out.len() - dist;
                out.reserve(len);
                let mut remaining = len;
                while remaining > 0 {
                    let avail = out.len() - start;
                    let chunk = avail.min(remaining);
                    out.extend_from_within(start..start + chunk);
                    remaining -= chunk;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_tokens_valid(data: &[u8], tokens: &[Token]) {
        let mut pos = 0usize;
        for &t in tokens {
            match t {
                Token::Literal(b) => {
                    assert_eq!(b, data[pos]);
                    pos += 1;
                }
                Token::Match { len, dist } => {
                    let (len, dist) = (len as usize, dist as usize);
                    assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
                    assert!((1..=WINDOW_SIZE).contains(&dist) && dist <= pos);
                    for k in 0..len {
                        assert_eq!(data[pos + k], data[pos - dist + k]);
                    }
                    pos += len;
                }
            }
        }
        assert_eq!(pos, data.len());
        assert_eq!(expand(tokens), data);
    }

    #[test]
    fn greedy_and_lazy_reproduce_input() {
        let data = b"abcabcabcabcXabcabcabcabcYabcabc".repeat(20);
        for level in [Level::Fast, Level::Default, Level::Best] {
            let tokens = tokenize(&data, level);
            check_tokens_valid(&data, &tokens);
        }
    }

    #[test]
    fn finds_long_run() {
        let data = vec![7u8; 1000];
        let tokens = tokenize(&data, Level::Default);
        check_tokens_valid(&data, &tokens);
        // A run compresses to a handful of tokens (first literal + matches).
        assert!(tokens.len() <= 1 + 1000 / MAX_MATCH + 2, "{}", tokens.len());
    }

    #[test]
    fn respects_window_distance() {
        // Repeat a marker 40KB apart: farther than the window, so it must
        // not be matched across that gap.
        let mut data = vec![0u8; 80_000];
        for (i, b) in b"UNIQUEMARKER".iter().enumerate() {
            data[100 + i] = *b;
            data[70_000 + i] = *b;
        }
        let tokens = tokenize(&data, Level::Best);
        check_tokens_valid(&data, &tokens);
    }

    #[test]
    fn lazy_prefers_longer_match() {
        // "ab" repeats early; "bcdef" repeats later. At the position of the
        // second "abcdef", greedy takes the short "ab" match, lazy should
        // emit 'a' as a literal and take the longer "bcdef"-anchored match.
        let data = b"ab__bcdefgh__abcdefgh".to_vec();
        let lazy_tokens = tokenize(&data, Level::Best);
        check_tokens_valid(&data, &lazy_tokens);
        let greedy_tokens = tokenize(&data, Level::Fast);
        check_tokens_valid(&data, &greedy_tokens);
        let lazy_cost: usize = lazy_tokens.len();
        assert!(lazy_cost <= greedy_tokens.len());
    }

    #[test]
    fn all_literals_for_random_bytes() {
        let mut x = 0x9e3779b9u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect();
        let tokens = tokenize(&data, Level::Default);
        check_tokens_valid(&data, &tokens);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(tokenize(&[], Level::Default).is_empty());
        for n in 1..=4 {
            let data = vec![9u8; n];
            let tokens = tokenize(&data, Level::Default);
            check_tokens_valid(&data, &tokens);
        }
    }

    #[test]
    fn overlapping_match_is_representable() {
        // "aaaa..." forces dist=1 matches that overlap their own output.
        let data = vec![b'a'; 50];
        let tokens = tokenize(&data, Level::Default);
        check_tokens_valid(&data, &tokens);
        assert!(tokens
            .iter()
            .any(|t| matches!(t, Token::Match { dist: 1, .. })));
    }

    #[test]
    fn match_len_agrees_with_scalar() {
        // Pseudo-random buffer with planted agreements: the word-at-a-time
        // path must agree with a byte-at-a-time reference at every offset
        // and cap, including non-multiple-of-8 tails.
        let mut x = 0xabcdef12u32;
        let mut data: Vec<u8> = (0..600)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect();
        // Plant a long identical stretch.
        let copy: Vec<u8> = data[40..140].to_vec();
        data[300..400].copy_from_slice(&copy);
        for (a, b) in [(40usize, 300usize), (41, 301), (45, 305), (0, 300)] {
            for max_len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 99, 100, 200] {
                let max_len = max_len.min(data.len() - b);
                let scalar = data[a..]
                    .iter()
                    .zip(&data[b..])
                    .take(max_len)
                    .take_while(|(p, q)| p == q)
                    .count();
                assert_eq!(
                    match_len(&data, a, b, max_len),
                    scalar,
                    "a={a} b={b} max_len={max_len}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_state() {
        // Tokenizing B after A with a reused scratch must give exactly the
        // tokens of a fresh tokenize(B): no stale chain state may leak.
        let a = b"abcabcabcabcabcabc".repeat(40);
        let mut x = 77u32;
        let b: Vec<u8> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 17) as u8
            })
            .collect();
        for level in [Level::Fast, Level::Default, Level::Best] {
            let mut scratch = EncoderScratch::new();
            tokenize_into(&a, level, &mut scratch);
            check_tokens_valid(&a, scratch.tokens());
            tokenize_into(&b, level, &mut scratch);
            assert_eq!(scratch.tokens(), tokenize(&b, level), "level {level:?}");
            // And shrinking inputs (prev longer than the input) stay correct.
            tokenize_into(&a[..100], level, &mut scratch);
            assert_eq!(scratch.tokens(), tokenize(&a[..100], level));
        }
    }

    #[test]
    fn skip_ahead_still_finds_matches_after_literal_runs() {
        // A long incompressible stretch (skip fully ramped) followed by a
        // huge repeated block: the match region must still compress well
        // even though its first few positions may fall on skipped offsets.
        let mut x = 0x1234_5678u32;
        let mut data: Vec<u8> = (0..8000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 13) as u8
            })
            .collect();
        data.extend(b"the quick brown fox ".repeat(400));
        for level in [Level::Fast, Level::Default] {
            let tokens = tokenize(&data, level);
            check_tokens_valid(&data, &tokens);
            let matched: usize = tokens
                .iter()
                .map(|t| match t {
                    Token::Match { len, .. } => *len as usize,
                    Token::Literal(_) => 0,
                })
                .sum();
            // The 8000-byte repeated region must be almost entirely matches.
            assert!(matched > 7000, "level {level:?}: only {matched} matched");
        }
    }

    #[test]
    fn skip_step_ramps_and_caps() {
        let trigger = 64;
        assert_eq!(skip_step(0, trigger), 1);
        assert_eq!(skip_step(63, trigger), 1);
        assert_eq!(skip_step(64, trigger), 2);
        assert_eq!(skip_step(64 + 32, trigger), 3);
        assert!(skip_step(1 << 20, trigger) == MAX_SKIP);
        // Best disables skipping outright.
        assert_eq!(skip_step(1 << 20, usize::MAX), 1);
    }

    #[test]
    fn chain_budget_counts_self_references() {
        // Insert many positions with identical 3-byte hashes, then search
        // with a tiny max_chain: the walk must visit at most max_chain links
        // even though the head of the chain is a self-reference.
        let data = vec![5u8; 4096];
        let mut scratch = EncoderScratch::new();
        scratch.prepare(data.len());
        for i in 0..2048 {
            scratch.insert(&data, i);
        }
        let p = crate::deflate::MatchParams {
            max_chain: 8,
            nice_length: MAX_MATCH,
            lazy: true,
            skip_trigger: usize::MAX,
        };
        let (_, _, links) = scratch.longest_match(&data, 1000, keys(&data, 1000), &p, 0);
        assert!(links <= 8, "walked {links} links with a budget of 8");
    }
}
