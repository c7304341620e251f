//! Thin locking shims over `std::sync` with a guard-returning API.
//!
//! `std`'s locks return `Result` to surface poisoning; in this workspace a
//! panic while holding a lock is already fatal to the test or process, so
//! every call site would just `unwrap()`. These wrappers recover the guard
//! from a poisoned lock instead, giving the terse `lock()`/`read()`/
//! `write()` call style used throughout the engine.

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock holding `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// A condition variable paired with [`Mutex`], with the same
/// poison-recovering style: waits return the guard directly.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Blocks on `guard` until notified or `timeout` elapses. Returns the
    /// reacquired guard and whether the wait timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        match self.0.wait_timeout(guard, timeout) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r.timed_out())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_notify_and_timeout() {
        let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            let (g, _) = cv.wait_timeout(done, Duration::from_millis(50));
            done = g;
        }
        drop(done);
        t.join().unwrap();
        // Pure timeout path.
        let (g, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out);
        drop(g);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
