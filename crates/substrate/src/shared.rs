//! Cloneable readers–writer handles.
//!
//! [`Shared<T>`] wraps a value in `Arc<RwLock<T>>`: many concurrent
//! readers, exclusive writers. Unlike raw [`std::sync::RwLock`] it does
//! not surface poisoning — a panic while holding the lock leaves the
//! value in whatever state the panicking writer produced, and later
//! accessors simply proceed (`parking_lot` semantics). Its one user,
//! `serve`'s snapshot slot, only ever swaps a whole `Arc` in or clones
//! it out, so there is no half-written state for a reader to see.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A cloneable, thread-safe handle to a `T` behind a readers–writer
/// lock. Clones share the same underlying value.
#[derive(Debug, Default)]
pub struct Shared<T> {
    inner: Arc<RwLock<T>>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Shared<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Shared {
            inner: Arc::new(RwLock::new(value)),
        }
    }

    /// Acquire a shared read guard (recovers from poisoning).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard (recovers from poisoning).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Shared::new(0u32);
        let b = a.clone();
        *a.write() += 5;
        assert_eq!(*b.read(), 5);
    }

    #[test]
    fn concurrent_readers_and_writers_agree_on_the_final_state() {
        let shared = Shared::new(Vec::<u32>::new());
        let writers = 4u32;
        let per_writer = 500u32;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let handle = shared.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        handle.write().push(w * per_writer + i);
                    }
                });
            }
            for _ in 0..4 {
                let handle = shared.clone();
                scope.spawn(move || {
                    for _ in 0..200 {
                        let n = handle.read().len();
                        assert!(n <= (writers * per_writer) as usize);
                    }
                });
            }
        });
        let mut got = shared.read().clone();
        got.sort_unstable();
        let expected: Vec<u32> = (0..writers * per_writer).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn survives_a_poisoning_panic() {
        let shared = Shared::new(7u32);
        let clone = shared.clone();
        let result = std::thread::spawn(move || {
            let _guard = clone.write();
            panic!("poison the lock");
        })
        .join();
        assert!(result.is_err());
        // The lock is poisoned; reads still work.
        assert_eq!(*shared.read(), 7);
        *shared.write() = 8;
        assert_eq!(*shared.read(), 8);
    }
}
