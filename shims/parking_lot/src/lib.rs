//! Minimal stand-in for `parking_lot` 0.12 (offline build; see
//! `shims/README.md`). [`Mutex`] wraps `std::sync::Mutex` with
//! parking_lot's panic-free, poison-free surface: a panicking holder
//! does not poison the lock for later callers.

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::{MutexGuard, PoisonError};

/// A mutual-exclusion lock (no poisoning, like upstream parking_lot).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// New lock holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn lock_and_into_inner() {
        let m = Mutex::new(1u64);
        *m.lock() += 41;
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn not_poisoned_after_panic() {
        let m = std::sync::Arc::new(Mutex::new(0u64));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }
}
