//! The crate's one chunk-parallel engine. `compress_bytes_parallel`,
//! `ArchiveReader::read_all_parallel` and the overlapped `ArchiveWriter` are
//! each [`ordered_map`] with their own `work` and `consume`; [`Streaming`]
//! runs it on an owned thread for callers that produce items one at a time.
//! Threads, channels and locks live here and nowhere else in the crate.

use crate::error::{PrimacyError, Result};
use primacy_trace as trace;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where an [`ordered_map`] run spent its time: `work` summed over the
/// `workers`, `consume`, and the run's `wall` clock, which spans both.
#[derive(Debug, Default)]
pub(crate) struct Busy {
    pub(crate) work: Duration,
    pub(crate) consume: Duration,
    pub(crate) workers: usize,
    pub(crate) wall: Duration,
}

impl Busy {
    /// Share (0–100) of the shorter of per-worker work and consume time that
    /// ran hidden behind the other. With `C/T` the work time per worker and
    /// `W` the consume time, hidden time is `C/T + W − wall`, floored at 0,
    /// as a share of `min(C/T, W)`. Neither term exceeds `wall`, so the
    /// share needs no clamp.
    pub(crate) fn hidden_pct(&self) -> u64 {
        let work = self.work / self.workers.max(1) as u32;
        let hidden = work.saturating_add(self.consume).saturating_sub(self.wall);
        let shorter = work.min(self.consume).as_nanos();
        (hidden.as_nanos() * 100).checked_div(shorter).unwrap_or(0) as u64
    }
}

/// Run `work` over `items` on `threads.max(1)` workers (no more than the
/// iterator's upper size bound), each with its own state from `init`, and
/// pass the results to `consume` in item order through a channel bounded at
/// 2 × workers.
///
/// Workers pull items in index order, so every item below a failing index
/// has been handed out and is still consumed: the error of the lowest
/// failing index wins, at any thread count. A panic in `init`, `work` or
/// `consume` becomes a typed error. The consumer stops at the first error
/// and drops the channel, so every worker's next send fails and it exits.
pub(crate) fn ordered_map<I: Send, S, R: Send>(
    items: impl Iterator<Item = I> + Send,
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, I) -> Result<R> + Sync,
    mut consume: impl FnMut(R) -> Result<()>,
) -> Result<Busy> {
    let bound = items.size_hint().1.unwrap_or(usize::MAX).max(1);
    let workers = threads.max(1).min(bound);
    let items = Mutex::new(items.enumerate());
    let (tx, rx) = mpsc::sync_channel(workers.saturating_mul(2));
    let started = Instant::now();
    std::thread::scope(|scope| {
        let (items, init, work) = (&items, &init, &work);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(move || run_worker(items, init, work, &tx))
            })
            .collect();
        drop(tx); // the loop below ends once every worker has exited
        let mut busy = Busy {
            workers,
            ..Busy::default()
        };
        let mut outcome = Ok(());
        let (mut stash, mut next) = (BTreeMap::new(), 0usize);
        'recv: for (i, result) in rx {
            stash.insert(i, result);
            while let Some(result) = stash.remove(&next) {
                next += 1;
                let t = Instant::now();
                outcome = result.and_then(|r| guarded("chunk consumer panicked", || consume(r)));
                busy.consume += t.elapsed();
                if outcome.is_err() {
                    break 'recv;
                }
            }
        }
        // Every pulled item is sent unless its worker died outside `guarded`,
        // so a clean join of every worker means no item went missing.
        for handle in handles {
            match handle.join() {
                Ok(t) => busy.work += t,
                Err(_) => outcome = outcome.and(Err(PrimacyError::Format("chunk worker died"))),
            }
        }
        busy.wall = started.elapsed();
        outcome.map(|()| busy)
    })
}

/// Run `f`, turning a panic into `PrimacyError::Format(what)`.
fn guarded<T>(what: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or(Err(PrimacyError::Format(what)))
}

/// One worker's loop; returns its time spent in `work`. A worker stops after
/// its own failure (its state may be half-updated) or once the consumer has
/// hung up.
fn run_worker<I, S, R>(
    items: &Mutex<impl Iterator<Item = (usize, I)>>,
    init: &impl Fn() -> S,
    work: &impl Fn(&mut S, usize, I) -> Result<R>,
    tx: &mpsc::SyncSender<(usize, Result<R>)>,
) -> Duration {
    let _trace_scope = trace::thread_scope(); // one trace merge per worker
    let (mut state, mut busy) = (None, Duration::ZERO);
    loop {
        // A `let … else` drops the guard at the end of the statement, so
        // `work` runs unlocked (a `while let` would hold it for the body).
        let Some((i, item)) = items.lock().unwrap_or_else(|e| e.into_inner()).next() else {
            break;
        };
        let t = Instant::now();
        let result = guarded("chunk worker panicked", || {
            work(state.get_or_insert_with(init), i, item)
        });
        busy += t.elapsed();
        let failed = result.is_err();
        if tx.send((i, result)).is_err() || failed {
            break;
        }
    }
    busy
}

/// [`ordered_map`] on one owned thread, fed through a channel bounded at
/// 2 × threads. `consume` works on a state the thread owns, which
/// [`Streaming::finish`] hands back.
pub(crate) struct Streaming<I, C> {
    tx: mpsc::SyncSender<I>,
    thread: JoinHandle<(C, Result<Busy>)>,
}

impl<I, C> Streaming<I, C> {
    /// Start the owned thread, which runs the workers.
    pub(crate) fn spawn<S, R>(
        threads: usize,
        mut state: C,
        init: impl Fn() -> S + Send + Sync + 'static,
        work: impl Fn(&mut S, usize, I) -> Result<R> + Send + Sync + 'static,
        mut consume: impl FnMut(&mut C, R) -> Result<()> + Send + 'static,
    ) -> Self
    where
        I: Send + 'static,
        C: Send + 'static,
        R: Send + 'static,
    {
        let (tx, rx) = mpsc::sync_channel(threads.max(1).saturating_mul(2));
        let thread = std::thread::spawn(move || {
            let _trace_scope = trace::thread_scope();
            let busy = ordered_map(rx.into_iter(), threads, init, work, |r| {
                consume(&mut state, r)
            });
            (state, busy)
        });
        Self { tx, thread }
    }

    /// Queue the next item, blocking while the channel is full. Fails once
    /// the workers have stopped after an error, which `finish` reports.
    pub(crate) fn push(&self, item: I) -> Result<()> {
        self.tx
            .send(item)
            .map_err(|_| PrimacyError::Format("chunk workers exited early"))
    }

    /// Close the input, wait until every item is consumed, and return the
    /// state with the run's busy totals.
    pub(crate) fn finish(self) -> Result<(C, Busy)> {
        drop(self.tx);
        let (state, busy) = self
            .thread
            .join()
            .map_err(|_| PrimacyError::Format("chunk pipeline thread panicked"))?;
        Ok((state, busy?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::mpsc::channel;
    use std::sync::Barrier;

    /// Run `f` on its own thread; fail the test if it has not returned
    /// within ten seconds, so a deadlock fails instead of hanging.
    fn within_timeout<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("engine hung or its thread died")
    }

    /// Square `0..n`, collecting results in consume order. With two or more
    /// threads, item 0 is held until every later item has finished, so the
    /// consumer sees the results in reverse completion order.
    fn squares(n: usize, threads: usize) -> Result<Vec<usize>> {
        let done = AtomicUsize::new(0);
        let mut got = Vec::new();
        ordered_map(
            0..n,
            threads,
            || (),
            |_, i, x| {
                if i == 0 && threads > 1 {
                    while done.load(SeqCst) + 1 < n {
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, SeqCst);
                Ok(x * x)
            },
            |r| {
                got.push(r);
                Ok(())
            },
        )?;
        Ok(got)
    }

    #[test]
    fn order_holds_when_later_items_finish_first() {
        let expect: Vec<usize> = (0..40).map(|x| x * x).collect();
        for threads in [1, 2, 7, 16] {
            let got = within_timeout(move || squares(40, threads));
            assert_eq!(got.unwrap(), expect, "threads={threads}");
        }
    }

    #[test]
    fn zero_items_too_many_threads_and_zero_threads() {
        let got = within_timeout(|| [squares(0, 4), squares(3, 16), squares(5, 0)]);
        let [none, few, floored] = got.map(Result::unwrap);
        assert_eq!(none, Vec::<usize>::new());
        assert_eq!(few, vec![0, 1, 4]);
        assert_eq!(floored, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn workers_run_concurrently() {
        // Four items meet at a four-way barrier, which only opens if four
        // workers are inside `work` at once: no lock is held while it runs.
        let result = within_timeout(|| {
            let barrier = Barrier::new(4);
            let meet = |_: &mut (), _, _| {
                barrier.wait();
                Ok(())
            };
            ordered_map(0..4, 4, || (), meet, |()| Ok(()))
        });
        assert!(result.is_ok());
    }

    #[test]
    fn hidden_share_is_bounded() {
        let ms = Duration::from_millis;
        let busy = |work, consume, workers, wall| Busy {
            work: ms(work),
            consume: ms(consume),
            workers,
            wall: ms(wall),
        };
        // C/T = 100 ms and W = 60 ms in 120 ms: 40 of the shorter 60 ms hid.
        assert_eq!(busy(200, 60, 2, 120).hidden_pct(), 66);
        assert_eq!(busy(100, 100, 1, 100).hidden_pct(), 100);
        assert_eq!(busy(100, 100, 1, 200).hidden_pct(), 0);
        assert_eq!(busy(0, 0, 1, 0).hidden_pct(), 0);
    }

    #[test]
    fn lowest_index_error_wins() {
        for threads in [1, 2, 7, 16] {
            let err = within_timeout(move || {
                let failed_7 = AtomicBool::new(false);
                ordered_map(
                    0..20usize,
                    threads,
                    || (),
                    |_, i, _| match i {
                        // With two or more workers, item 3 fails only after
                        // item 7 has: the later failure arrives first.
                        3 => {
                            while threads > 1 && !failed_7.load(SeqCst) {
                                std::thread::yield_now();
                            }
                            Err(PrimacyError::Format("bad 3"))
                        }
                        7 => {
                            failed_7.store(true, SeqCst);
                            Err(PrimacyError::Format("bad 7"))
                        }
                        11 => Err(PrimacyError::Format("bad 11")),
                        _ => Ok(i),
                    },
                    |_| Ok(()),
                )
            });
            assert_eq!(
                err.unwrap_err(),
                PrimacyError::Format("bad 3"),
                "threads={threads}"
            );
        }
        // A consume failure below the first work failure wins too.
        let err = ordered_map(
            0..20usize,
            4,
            || (),
            |_, i, _| match i {
                9 => Err(PrimacyError::Format("work 9")),
                _ => Ok(i),
            },
            |i| match i {
                5 => Err(PrimacyError::Format("consume 5")),
                _ => Ok(()),
            },
        )
        .unwrap_err();
        assert_eq!(err, PrimacyError::Format("consume 5"));
    }

    #[test]
    fn panics_and_consume_failures_are_typed_and_do_not_hang() {
        let work_panic = within_timeout(|| {
            ordered_map(
                0..64usize,
                3,
                || (),
                |_, i, _| {
                    assert!(i != 10, "injected work panic");
                    Ok(i)
                },
                |_| Ok(()),
            )
        });
        assert_eq!(
            work_panic.unwrap_err(),
            PrimacyError::Format("chunk worker panicked")
        );
        let init_panic = within_timeout(|| {
            ordered_map(
                0..8usize,
                2,
                || -> u8 { panic!("injected init panic") },
                |_, i, _| Ok(i),
                |_| Ok(()),
            )
        });
        assert!(init_panic.is_err());
        let consume_panic = within_timeout(|| {
            ordered_map(
                0..64usize,
                3,
                || (),
                |_, i, _| Ok(i),
                |i| {
                    assert!(i != 2, "injected consume panic");
                    Ok(())
                },
            )
        });
        assert_eq!(
            consume_panic.unwrap_err(),
            PrimacyError::Format("chunk consumer panicked")
        );
        let consume_fail = within_timeout(|| {
            ordered_map(
                0..64usize,
                3,
                || (),
                |_, i, _| Ok(i),
                |i| match i {
                    2 => Err(PrimacyError::Format("sink full")),
                    _ => Ok(()),
                },
            )
        });
        assert_eq!(consume_fail.unwrap_err(), PrimacyError::Format("sink full"));
    }

    #[test]
    fn streaming_consumes_in_order_and_reports_busy_time() {
        let stream = Streaming::spawn(
            3,
            Vec::new(),
            || (),
            |_, _, x: u64| Ok(x + 1),
            |out: &mut Vec<u64>, r| {
                out.push(r);
                Ok(())
            },
        );
        for x in 0..100 {
            stream.push(x).unwrap();
        }
        let (out, busy) = stream.finish().unwrap();
        assert_eq!(out, (1..=100).collect::<Vec<u64>>());
        assert!(busy.work > Duration::ZERO && busy.consume > Duration::ZERO);
    }

    #[test]
    fn streaming_failure_unblocks_the_producer() {
        let result = within_timeout(|| {
            let stream = Streaming::spawn(
                2,
                (),
                || (),
                |_, i, x: u64| {
                    assert!(i != 5, "injected work panic");
                    Ok(x)
                },
                |_, _| Ok(()),
            );
            // Keep pushing until the dead pipeline refuses an item.
            let refused = (0..10_000).any(|x| stream.push(x).is_err());
            (refused, stream.finish().map(|_| ()))
        });
        assert!(result.0, "producer never saw the pipeline stop");
        assert_eq!(
            result.1.unwrap_err(),
            PrimacyError::Format("chunk worker panicked")
        );
    }
}
