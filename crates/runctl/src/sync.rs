//! The workspace's single sanctioned mutex poison policy.
//!
//! Every `Mutex` acquisition in library code goes through
//! [`Lock::enter`] (enforced by the `neat-lint` L6 rule — a raw
//! `.lock()` anywhere else is a diagnostic). `enter` *rides through*
//! poisoning: if another thread panicked while holding the guard, the
//! lock is taken anyway and the data used as-is.
//!
//! Why ride-through is the right default here: all workspace mutexes
//! (declared in `lint-locks.toml`) guard either append-only result bins
//! whose per-slot writes are completed before the guard drops (`exec`'s
//! worker bins), a swap cell whose update is a single pointer store
//! (`neatsvc::snapshot`), or test/observability buffers
//! (`runctl::progress`). None can be observed in a half-updated state
//! across a panic boundary, so propagating the poison would only convert
//! one thread's panic into a second, less diagnosable one. Components
//! that *do* want poison to propagate (e.g. `durability::MemFs`, whose
//! state is a multi-step filesystem simulation) deliberately keep an
//! annotated raw `.expect` acquisition instead.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Extension trait providing the sanctioned acquisition method.
pub trait Lock<T: ?Sized> {
    /// Acquires the lock, riding through poisoning (see module docs for
    /// why that is sound for every lock declared in `lint-locks.toml`).
    fn enter(&self) -> MutexGuard<'_, T>;
}

impl<T: ?Sized> Lock<T> for Mutex<T> {
    fn enter(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn enter_locks_and_unlocks() {
        let m = Mutex::new(3u32);
        *m.enter() += 1;
        assert_eq!(*m.enter(), 4);
    }

    #[test]
    fn enter_rides_through_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.enter();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*m.enter(), 7, "data still reachable after poison");
    }
}
