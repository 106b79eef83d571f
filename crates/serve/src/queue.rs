//! Bounded MPMC job queue with explicit backpressure.
//!
//! The server's admission policy (DESIGN.md "Serving") is *reject, don't
//! buffer*: when the queue is full, [`Bounded::try_push`] hands the item
//! straight back so the connection thread can answer `Busy` — there is no
//! blocking push and therefore no unbounded memory growth and no hidden
//! queueing latency. Consumers block in [`Bounded::pop`] on a condvar.
//!
//! Built on `Mutex<VecDeque>` + `Condvar` rather than a lock-free ring:
//! every queue operation is adjacent to a multi-kilobyte compression job,
//! so the lock is noise, and the condvar gives exact wakeups for shutdown
//! draining (`close` wakes every consumer; each drains remaining items and
//! then observes the closed flag).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::lock_recover;

/// Outcome of a rejected [`Bounded::try_push`], returning ownership of the
/// item so the caller can respond to it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — answer with backpressure.
    Full(T),
    /// The queue is closed for shutdown — no new work is admitted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    cap: usize,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `cap` items (`cap` is clamped to ≥ 1 so a
    /// misconfigured zero depth cannot deadlock every producer).
    pub fn new(cap: usize) -> Self {
        Bounded {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current depth (racy by nature; for metrics only).
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).items.len()
    }

    /// Whether the queue is currently empty (racy; for metrics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit `item` if there is room. On success returns the queue depth
    /// *after* the push (for depth metrics); on rejection returns the item.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Block until an item is available or the queue is closed *and*
    /// drained. `None` means shutdown: the queue is closed and every
    /// admitted item has been handed to some consumer — the drain guarantee
    /// graceful shutdown relies on.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock_recover(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue: future pushes fail with [`PushError::Closed`],
    /// consumers drain what was admitted and then receive `None`.
    pub fn close(&self) {
        let mut inner = lock_recover(&self.inner);
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = Bounded::new(4);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects_with_item() {
        let q = Bounded::new(2);
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        match q.try_push(12) {
            Err(PushError::Full(v)) => assert_eq!(v, 12),
            other => panic!("expected Full, got {other:?}"),
        }
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.try_push(12).unwrap(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        match q.try_push("c") {
            Err(PushError::Closed(v)) => assert_eq!(v, "c"),
            other => panic!("expected Closed, got {other:?}"),
        }
        // Admitted items still drain in order, then None forever.
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = Bounded::new(0);
        assert_eq!(q.capacity(), 1);
        // One item fits, so a single-producer single-consumer pair cannot
        // deadlock even under the misconfiguration.
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert!(matches!(q.try_push(2), Err(PushError::Full(2))));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || q.pop()));
        }
        // Give the consumers a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        const PER_PRODUCER: usize = 200;
        let q = Arc::new(Bounded::<usize>::new(8));
        let mut producers = Vec::new();
        for p in 0..4 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let mut item = p * PER_PRODUCER + i;
                    // Spin on Full: producers in this test emulate retrying
                    // clients.
                    loop {
                        match q.try_push(item) {
                            Ok(_) => break,
                            Err(PushError::Full(v)) => {
                                item = v;
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => panic!("closed early"),
                        }
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let expected: Vec<usize> = (0..4 * PER_PRODUCER).collect();
        assert_eq!(all, expected);
    }
}
