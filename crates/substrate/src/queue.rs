//! A bounded multi-producer multi-consumer queue.
//!
//! `std::sync::mpsc::sync_channel` is bounded but hides the current
//! queue depth and cannot be popped by whichever thread happens to hold
//! a lock of its own, both of which the serving layer needs: depth feeds
//! the queue-depth gauge and the holder of a shard's owner pops, and
//! close refuses new work at SHUTDOWN while what was queued stays
//! poppable. This is the narrow slice of `crossbeam-channel` the
//! workspace actually uses, built on a [`Mutex`]; nothing here blocks.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the value is handed back so the
    /// caller can retry or reject upstream.
    Full(T),
    /// The queue was closed; no further values will ever be accepted.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO queue; share it by reference (or in an `Arc`), and
/// any thread may push, pop, or close.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    capacity: usize,
}

impl<T> std::fmt::Debug for Bounded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bounded")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a bounded queue needs capacity >= 1");
        Bounded {
            state: Mutex::new(State { items: VecDeque::with_capacity(capacity), closed: false }),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // Poisoning only matters if a holder panicked mid-mutation;
        // every critical section here is a few field accesses.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Push without blocking. Returns the value on a full or closed
    /// queue — the backpressure signal the server turns into BUSY.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(value));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(value));
        }
        state.items.push_back(value);
        Ok(())
    }

    /// Pop without blocking (`None` when empty, closed or not).
    pub fn try_pop(&self) -> Option<T> {
        self.lock().items.pop_front()
    }

    /// Current number of queued items (a gauge; racy by nature).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Close the queue: future pushes fail, queued items remain
    /// poppable.
    pub fn close(&self) {
        self.lock().closed = true;
    }

    /// Whether [`Bounded::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.try_pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn close_refuses_pushes_and_keeps_the_queued() {
        let q = Bounded::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.try_pop(), Some("a"));
        assert_eq!(q.try_pop(), Some("b"));
        assert_eq!(q.try_pop(), None);
        assert!(q.is_closed());
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = Bounded::new(8);
        let mut got = Vec::new();
        std::thread::scope(|scope| {
            for p in 0..4u64 {
                let q = &q;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        // A full queue hands the item back: retry until the
                        // consumer frees a slot.
                        let mut item = p * 1000 + i;
                        while let Err(PushError::Full(back)) = q.try_push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            while got.len() < 400 {
                match q.try_pop() {
                    Some(item) => got.push(item),
                    None => std::thread::yield_now(),
                }
            }
        });
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 400, "every pushed item arrives exactly once");
    }
}
