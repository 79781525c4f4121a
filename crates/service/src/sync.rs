//! Poison-recovering wrappers around `std::sync` locking.
//!
//! The scheduler fences job execution with `catch_unwind`, so the only
//! way a service mutex becomes poisoned is a panic inside one of the
//! crate's own short, allocation-light critical sections — which the
//! `no-panic-paths` lint forbids.  If one slips through anyway, the old
//! `.expect("poisoned")` behavior turned a single wounded thread into a
//! cascade: every other thread touching the lock panicked too, taking the
//! reactor (and all of its connections) with it.  Recovering the guard
//! with [`PoisonError::into_inner`] instead keeps the daemon serving;
//! scheduler state transitions are designed to be individually consistent
//! (counters use saturating arithmetic, map entries are inserted/removed
//! in single statements), so observing a post-panic state is safe — at
//! worst a statistics counter is momentarily stale.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait`, recovering the reacquired guard on poison.
pub(crate) fn wait_or_recover<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_after_a_panicked_holder() {
        let mutex = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock().expect("first lock");
            panic!("poison it");
        }));
        assert!(mutex.is_poisoned());
        let mut guard = lock_or_recover(&mutex);
        *guard += 1;
        assert_eq!(*guard, 8);
    }
}
