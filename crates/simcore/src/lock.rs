//! Poison-tolerant lock wrappers over `std::sync`.
//!
//! The workspace builds with **zero external dependencies** (see the
//! "Hermetic build" section of `DESIGN.md`), so instead of `parking_lot`
//! the simulation uses this thin wrapper around [`std::sync::Mutex`] with a
//! `parking_lot`-style API: [`Mutex::lock`] returns the guard directly and
//! never panics on poisoning.
//!
//! Poison tolerance is the right semantics here: simulation process panics
//! are already caught and converted to [`crate::SimError::ProcessPanic`] by
//! the scheduler, so a poisoned lock only means "some process panicked while
//! holding the guard" — the scheduler still needs to read the shared state
//! to report the failure instead of cascading `PoisonError` panics.
//!
//! With the `lock-census` feature, every [`Mutex::lock`] also counts itself
//! into one process-wide total, read by [`locks_taken`]: the host ledger
//! test pins lock acquisitions per benchmark instance with it. Without the
//! feature (every non-test build) a lock costs nothing extra.

use std::sync::MutexGuard;

#[cfg(feature = "lock-census")]
static LOCKS_TAKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// [`Mutex::lock`] calls so far in this process, on every thread (the
/// `lock-census` feature).
#[cfg(feature = "lock-census")]
pub fn locks_taken() -> u64 {
    LOCKS_TAKEN.load(std::sync::atomic::Ordering::Relaxed)
}

/// A mutual-exclusion lock with a `parking_lot`-flavoured API on top of
/// [`std::sync::Mutex`]: `lock()` returns the guard directly, recovering
/// from poisoning instead of panicking.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new lock guarding `value`.
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Consume the lock, returning the guarded value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the calling thread until it is available.
    ///
    /// Unlike `std`, a poisoned lock is recovered rather than propagated —
    /// see the module docs for why that is sound in this codebase.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lock-census")]
        LOCKS_TAKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Attempt to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A std mutex would now return PoisonError; ours recovers.
        *m.lock() += 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(1);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
