//! Steady-state allocation gate for the scratch-reuse hot paths: once a
//! scratch has been warmed by one call, the LZ77 tokenizer must perform
//! **zero** heap allocations for subsequent chunks of the same or smaller
//! size — the hash-chain arrays and token buffer are reused, not
//! reallocated — and so must FPC's `decompress_into`, while FPC's
//! `compress_with` allocates exactly once, for the buffer it returns.
//!
//! Verified with a counting global allocator. This file contains exactly one
//! test so no sibling test thread can allocate inside the measured window
//! (integration-test binaries run tests in-process threads).

use primacy_codecs::deflate::lz77::{tokenize_into, EncoderScratch};
use primacy_codecs::deflate::Level;
use primacy_codecs::fpc::Fpc;
use primacy_codecs::{Codec, CodecScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation unchanged to the `System` allocator; the
// only addition is a relaxed counter bump, which has no effect on the
// allocator contract.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the GlobalAlloc contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the GlobalAlloc contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the GlobalAlloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller upholds the GlobalAlloc contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocs() -> usize {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// A deterministic mixed-compressibility chunk: structured prefix, random
/// middle, run-heavy suffix — exercises match emission, skip-ahead, and the
/// literal path in one pass.
fn chunk(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let b = match i % 3 {
            0 => (i / 17) as u8,
            1 => (x >> 33) as u8,
            _ => 42,
        };
        out.push(b);
    }
    out
}

#[test]
fn warm_scratch_calls_allocate_only_their_output() {
    tokenize_allocates_nothing();
    fpc_allocates_only_its_output();
}

fn tokenize_allocates_nothing() {
    const CHUNK: usize = 64 * 1024;
    let warmup = chunk(CHUNK, 0xA11C);
    let chunks: Vec<Vec<u8>> = (0..4)
        .map(|i| chunk(CHUNK - i * 1024, 0xBEEF + i as u64))
        .collect();

    for level in [Level::Fast, Level::Default, Level::Best] {
        let mut scratch = EncoderScratch::new();
        // Warm the scratch: this call allocates head/prev/token buffers.
        tokenize_into(&warmup, level, &mut scratch);
        let token_capacity_floor = scratch.tokens().len();

        // Steady state: same-or-smaller chunks must not touch the allocator.
        let before = allocs();
        for c in &chunks {
            tokenize_into(c, level, &mut scratch);
        }
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "{level:?}: tokenizer hit the allocator {delta} time(s) in steady state"
        );
        // Sanity: the measured calls really did produce work.
        assert!(!scratch.tokens().is_empty() && token_capacity_floor > 0);
    }
}

/// 2 KiB of doubles (the serve payload size) plus a ragged 3-byte tail.
fn doubles(seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut out: Vec<u8> = (0..256u32)
        .flat_map(|i| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let smooth = (f64::from(i) * 0.01).sin() * 1e3;
            (smooth.to_bits() ^ (x >> 44)).to_le_bytes()
        })
        .collect();
    out.extend_from_slice(&[1, 2, 3]);
    out
}

fn fpc_allocates_only_its_output() {
    let fpc = Fpc::default();
    let inputs: Vec<Vec<u8>> = (0..4).map(|i| doubles(0xF9C + i)).collect();
    let streams: Vec<Vec<u8>> = inputs.iter().map(|p| fpc.compress(p).unwrap()).collect();
    let mut scratch = CodecScratch::new();
    let mut out = Vec::new();
    // Warm: the first calls size the predictor tables and `out`.
    fpc.compress_with(&inputs[0], &mut scratch).unwrap();
    fpc.decompress_into(&streams[0], &mut scratch, &mut out)
        .unwrap();

    for (input, stream) in inputs.iter().zip(&streams) {
        let before = allocs();
        let packed = fpc.compress_with(input, &mut scratch).unwrap();
        let delta = allocs() - before;
        assert_eq!(
            delta, 1,
            "warm fpc compress_with hit the allocator {delta} time(s), not once for its output"
        );
        assert_eq!(&packed, stream);

        let before = allocs();
        fpc.decompress_into(stream, &mut scratch, &mut out).unwrap();
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "warm fpc decompress_into hit the allocator {delta} time(s)"
        );
        assert_eq!(&out, input);
    }
}
