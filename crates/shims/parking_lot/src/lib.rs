//! A minimal, API-compatible stand-in for the `parking_lot` crate, backed
//! by `std::sync`. The build environment has no network access to
//! crates.io, so the workspace vendors the small slice of the API it
//! actually uses: `Mutex` (non-poisoning `lock()`), `MutexGuard` (with
//! `unlocked`), and `Condvar` with `wait`/`wait_for`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual exclusion primitive. Unlike `std::sync::Mutex`, `lock()`
/// ignores poisoning (matching parking_lot semantics).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            mutex: &self.inner,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                mutex: &self.inner,
                inner: Some(g),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                mutex: &self.inner,
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
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
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard for [`Mutex`]. Holds the std guard in an `Option` so
/// [`Condvar::wait`] and [`MutexGuard::unlocked`] can temporarily take
/// ownership through `&mut`.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a std::sync::Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// Releases the mutex, runs `f`, and re-acquires the mutex before
    /// returning (an associated function, as in parking_lot: call it as
    /// `MutexGuard::unlocked(&mut guard, f)`).
    pub fn unlocked<U>(s: &mut Self, f: impl FnOnce() -> U) -> U {
        drop(s.inner.take());
        let out = f();
        s.inner = Some(s.mutex.lock().unwrap_or_else(PoisonError::into_inner));
        out
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// Result of a timed condition-variable wait.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable with parking_lot's by-reference guard API.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the guard while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(g);
    }

    /// Blocks until notified or the timeout elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard present");
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    /// Wakes one waiting thread. Returns whether a thread may have been
    /// woken (std does not report this; `true` is always returned).
    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        true
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        0
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A readers-writer lock, non-poisoning.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trips() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn unlocked_releases_the_mutex_for_the_closure_only() {
        let m = Mutex::new(1);
        let mut g = m.lock();
        let seen = MutexGuard::unlocked(&mut g, || {
            let mut inner = m.try_lock().expect("released inside the closure");
            *inner += 1;
            *inner
        });
        assert_eq!(seen, 2);
        assert_eq!(*g, 2);
        assert!(m.try_lock().is_none(), "re-acquired after the closure");
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }
}
