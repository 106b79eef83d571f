//! The overlapped `ArchiveWriter`'s two contracts (ISSUE 10):
//!
//! 1. **Byte identity** — pipelining is an execution strategy, not a format:
//!    the overlapped writer must produce archives byte-identical to the
//!    sequential writer for every thread count and every chunk-alignment
//!    shape, so golden vectors never rotate.
//! 2. **Typed failure, never deadlock** — a sink that fails or panics inside
//!    the writer thread must surface as a `PrimacyError` from `finish()`,
//!    with every worker unblocked via channel disconnection.

use primacy_core::{ArchiveReader, ArchiveWriter, PrimacyConfig, PrimacyError};
use std::io::Write;

/// Small chunks so even modest inputs span many sections.
fn config() -> PrimacyConfig {
    PrimacyConfig {
        chunk_bytes: 4096, // 512 doubles per chunk
        ..PrimacyConfig::default()
    }
}

fn doubles(n: usize) -> Vec<u8> {
    (0..n)
        .flat_map(|i| ((i as f64 * 0.37).sin() * 1e3 + i as f64).to_le_bytes())
        .collect()
}

fn write_archive(bytes: &[u8], threads: Option<usize>) -> Vec<u8> {
    let mut w = match threads {
        Some(t) => ArchiveWriter::with_overlap(Vec::new(), config(), t),
        None => ArchiveWriter::new(Vec::new(), config()),
    }
    .expect("open writer");
    // Append in uneven slices so chunk boundaries never align with appends.
    for piece in bytes.chunks(1000) {
        w.append(piece).expect("append");
    }
    w.finish().expect("finish")
}

#[test]
fn overlapped_archives_are_byte_identical_to_sequential() {
    // 2048 doubles = 4 exact chunks; 2000 = 3 chunks + ragged tail;
    // 100 = a single partial chunk; 0 = directory-only archive.
    for elements in [2048usize, 2000, 100, 0] {
        let bytes = doubles(elements);
        let golden = write_archive(&bytes, None);
        for threads in [1usize, 2, 7, 16] {
            let overlapped = write_archive(&bytes, Some(threads));
            assert_eq!(
                overlapped, golden,
                "{elements} elements, {threads} threads: overlapped archive diverged"
            );
        }
        // The shared golden bytes decode back to the input.
        let r = ArchiveReader::open(&golden).expect("open");
        assert_eq!(r.read_all_parallel(4).expect("parallel read"), bytes);
    }
}

#[test]
fn elements_written_tracks_pending_and_flushed_in_both_modes() {
    let bytes = doubles(700); // crosses one chunk boundary mid-append
    for threads in [None, Some(2)] {
        let mut w = match threads {
            Some(t) => ArchiveWriter::with_overlap(Vec::new(), config(), t),
            None => ArchiveWriter::new(Vec::new(), config()),
        }
        .expect("open writer");
        w.append(&bytes).expect("append");
        assert_eq!(w.elements_written(), 700);
        let archive = w.finish().expect("finish");
        let r = ArchiveReader::open(&archive).expect("open");
        assert_eq!(r.element_count(), 700);
    }
}

/// A sink that panics on the `fail_after`-th write call. Write #1 is the
/// archive header, written on the caller's thread before the pipeline
/// spawns; later writes happen inside the writer thread.
#[derive(Debug)]
struct PanickingSink {
    writes: usize,
    fail_after: usize,
}

impl Write for PanickingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        assert!(
            self.writes <= self.fail_after,
            "injected sink panic on write {}",
            self.writes
        );
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn writer_thread_panic_surfaces_as_typed_error_not_deadlock() {
    let bytes = doubles(4096); // 8 chunks: workers keep producing after the panic
    let sink = PanickingSink {
        writes: 0,
        fail_after: 1, // header succeeds, first section write panics
    };
    let mut w = ArchiveWriter::with_overlap(sink, config(), 2).expect("open writer");
    // Appends may or may not start failing depending on how fast the
    // pipeline collapses; finish() must report a typed error either way.
    let mut append_err = None;
    for piece in bytes.chunks(1000) {
        if let Err(e) = w.append(piece) {
            append_err = Some(e);
            break;
        }
    }
    match w.finish() {
        Err(e) => assert!(
            matches!(e, PrimacyError::Format(_)),
            "expected a Format error, got {e:?}"
        ),
        Ok(_) => panic!("finish succeeded despite a panicked writer thread"),
    }
    if let Some(e) = append_err {
        assert!(matches!(e, PrimacyError::Format(_)), "append error {e:?}");
    }
}

/// A sink whose write *fails* (io::Error, no panic) after `fail_after`
/// writes — the non-panic half of the failure contract.
#[derive(Debug)]
struct FailingSink {
    writes: usize,
    fail_after: usize,
}

impl Write for FailingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        if self.writes > self.fail_after {
            return Err(std::io::Error::other("injected sink failure"));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn sink_write_error_surfaces_from_finish_in_both_modes() {
    let bytes = doubles(4096);
    // Overlapped: the writer thread keeps draining after the error, so
    // every compress worker unblocks and finish reports the root cause.
    let sink = FailingSink {
        writes: 0,
        fail_after: 1,
    };
    let mut w = ArchiveWriter::with_overlap(sink, config(), 2).expect("open writer");
    for piece in bytes.chunks(1000) {
        if w.append(piece).is_err() {
            break;
        }
    }
    match w.finish() {
        Err(PrimacyError::Format(msg)) => {
            assert!(
                msg.contains("sink write failed") || msg.contains("workers exited"),
                "unexpected message: {msg}"
            );
        }
        other => panic!("expected a typed sink error, got {other:?}"),
    }

    // Sequential: the same sink fails synchronously inside append/finish.
    let sink = FailingSink {
        writes: 0,
        fail_after: 1,
    };
    let mut w = ArchiveWriter::new(sink, config()).expect("open writer");
    let result = w.append(&bytes).and_then(|()| w.finish().map(|_| ()));
    assert!(
        matches!(result, Err(PrimacyError::Format(_))),
        "sequential sink failure must be typed: {result:?}"
    );
}
