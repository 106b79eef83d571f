//! The overlapped `ArchiveWriter`'s two contracts (ISSUE 10):
//!
//! 1. **Byte identity** — pipelining is an execution strategy, not a format:
//!    the overlapped writer must produce archives byte-identical to the
//!    sequential writer for every thread count and every chunk-alignment
//!    shape, so golden vectors never rotate.
//! 2. **Typed failure, never deadlock** — a sink that fails or panics inside
//!    the writer thread must surface as a `PrimacyError` from `finish()`,
//!    with every worker unblocked via channel disconnection. A sink that
//!    fails at any one write — the layout prefix, a section, the directory
//!    or the footer — surfaces as a typed error in either writer mode.

use primacy_core::{ArchiveReader, ArchiveWriter, PrimacyConfig, PrimacyError};
use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

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
/// writes — the non-panic half of the failure contract. It keeps the bytes
/// of the writes that succeeded.
#[derive(Debug)]
struct FailingSink {
    writes: usize,
    fail_after: usize,
    bytes: Vec<u8>,
}

impl FailingSink {
    fn new(fail_after: usize) -> Self {
        Self {
            writes: 0,
            fail_after,
            bytes: Vec::new(),
        }
    }
}

impl Write for FailingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        if self.writes > self.fail_after {
            return Err(std::io::Error::other("injected sink failure"));
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Write `bytes` through `sink` in one writer mode (`None` = sequential)
/// and return the sink, or the first error from opening, `append` or
/// `finish`. After an `append` error, `finish` must fail too.
fn write_through(
    sink: FailingSink,
    threads: Option<usize>,
    bytes: &[u8],
) -> Result<FailingSink, PrimacyError> {
    let mut w = match threads {
        Some(t) => ArchiveWriter::with_overlap(sink, config(), t),
        None => ArchiveWriter::new(sink, config()),
    }?;
    let mut first = None;
    for piece in bytes.chunks(1000) {
        if let Err(e) = w.append(piece) {
            first = Some(e);
            break;
        }
    }
    let finished = w.finish();
    match first {
        Some(e) => {
            assert!(
                finished.is_err(),
                "finish succeeded after append failed: {e:?}"
            );
            Err(e)
        }
        None => finished,
    }
}

/// Run `f` on its own thread: a deadlock fails after 30 s, and a panic
/// fails instead of unwinding into the caller.
fn within_timeout<T: Send + 'static>(what: String, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(value) => {
            worker.join().expect("worker exits after sending");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: no result within 30 s"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: panicked"),
    }
}

#[test]
fn sink_write_error_at_every_write_is_typed_in_both_modes() {
    let bytes = doubles(4096); // 8 chunks
    let clean = write_archive(&bytes, None);
    for threads in [None, Some(2)] {
        // Write 1 is the layout prefix, then one write per section, then
        // the directory and the footer.
        let data = bytes.clone();
        let writes = within_timeout(format!("{threads:?} clean run"), move || {
            write_through(FailingSink::new(usize::MAX), threads, &data).map(|s| s.writes)
        })
        .expect("a sink that never fails writes the archive");
        assert_eq!(writes, 1 + 8 + 2, "{threads:?}: write count");
        // Fail at write k + 1 for every k, and a few past the last write.
        for k in 0..writes + 3 {
            let data = bytes.clone();
            let what = format!("{threads:?}, sink failing after {k} writes");
            let result = within_timeout(what.clone(), move || {
                write_through(FailingSink::new(k), threads, &data)
            });
            match result {
                Ok(sink) => {
                    assert!(k >= writes, "{what}: no error");
                    assert!(
                        sink.bytes == clean,
                        "{what}: archive differs from the clean one"
                    );
                }
                Err(PrimacyError::Format(msg)) => {
                    assert!(k < writes, "{what}: failed past the last write: {msg}");
                    assert!(
                        msg.contains("sink write failed") || msg.contains("workers exited"),
                        "{what}: unexpected message: {msg}"
                    );
                }
                Err(other) => panic!("{what}: expected a typed sink error, got {other:?}"),
            }
        }
    }
}
