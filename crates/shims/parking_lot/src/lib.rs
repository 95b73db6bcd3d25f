//! A minimal, API-compatible stand-in for the `parking_lot` crate, backed
//! by `std::sync`. The build container has no crates.io access, so this
//! shim provides exactly the subset the workspace uses: [`Mutex`] with a
//! guard returned straight from `lock()` (no poison `Result`).
//!
//! Poisoning is deliberately ignored (parking_lot has no poisoning): a
//! panicking holder does not prevent later lock acquisitions.

use std::sync::PoisonError;

pub use std::sync::MutexGuard;

/// Mutual exclusion primitive; `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn lock_survives_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the std mutex");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }
}
