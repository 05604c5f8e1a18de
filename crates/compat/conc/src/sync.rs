//! Instrumented `Mutex`/`Condvar`, API-compatible with `std::sync`.
//!
//! Outside a model execution these delegate to an embedded std mutex/condvar
//! (passthrough). Inside one, lock acquisition, release, wait and notify are
//! scheduler operations: the model tracks ownership and waiter queues
//! explicitly, and blocking is a scheduler state rather than an OS park.
//!
//! A condvar wait on a model thread that is unwinding a failed run abandons
//! the lane instead of blocking (see the [crate docs](crate)).
//!
//! Model condvars have **no spurious wakeups** — callers looping on a
//! predicate (as all std-correct code must) lose no coverage, but a caller
//! relying on a spurious wakeup for progress would deadlock here first.
//!
//! Poisoning is not modeled: lock results are always `Ok`, matching how the
//! engine treats poisoning (unwrap) while keeping the std signatures.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

pub use std::sync::{LockResult, PoisonError, WaitTimeoutResult};

use crate::exec::{self, Key, ModelRef, Shared, Tid, KIND_CONDVAR, KIND_MUTEX};

/// Instrumented [`std::sync::Mutex`].
pub struct Mutex<T> {
    reg: ModelRef,
    /// Provides real mutual exclusion (and a condvar anchor) in passthrough.
    real: std::sync::Mutex<()>,
    data: UnsafeCell<T>,
}

// SAFETY: `Mutex<T>` hands out `&T`/`&mut T` only through `MutexGuard`, whose
// existence implies exclusive ownership — via the held std guard in
// passthrough mode, or via the model scheduler's single-owner bookkeeping in
// model mode (`mutex_try_lock` blocks every other thread until unlock). That
// is exactly the std::sync::Mutex contract, so the same bounds apply.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: see the `Send` impl above; `&Mutex<T>` only exposes `T` under the
// exclusion protocol, so sharing the handle across threads is sound for any
// `T: Send` (same bound as std).
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            reg: ModelRef::new(),
            real: std::sync::Mutex::new(()),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the mutex, blocking (in the model: parking the thread in the
    /// scheduler) until it is free. Never returns `Err`: poisoning is not
    /// modeled and passthrough poison is swallowed.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match exec::current() {
            None => {
                let real = self.real.lock().unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    lock: self,
                    real: Some(real),
                    model: None,
                })
            }
            Some((shared, tid)) => {
                let key = self.reg.key(&shared, tid, KIND_MUTEX);
                while !shared.mutex_try_lock(tid, key) {}
                Ok(MutexGuard {
                    lock: self,
                    real: None,
                    model: Some((shared, tid, key)),
                })
            }
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.data.into_inner())
    }

    /// Mutable access without locking (the `&mut` proves exclusivity).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(self.data.get_mut())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never inspects the data: that would need a lock (a schedule point).
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`]; unlocks on drop. `!Send` (it embeds an
/// `Option<std::sync::MutexGuard>`), like the std guard.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    real: Option<std::sync::MutexGuard<'a, ()>>,
    model: Option<(Arc<Shared>, Tid, Key)>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: a live guard means this thread holds the mutex (std guard
        // in passthrough, scheduler ownership in the model), so no other
        // reference to the data can exist.
        #[allow(unsafe_code)]
        unsafe {
            &*self.lock.data.get()
        }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — the guard certifies exclusive ownership
        // for its whole lifetime.
        #[allow(unsafe_code)]
        unsafe {
            &mut *self.lock.data.get()
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((shared, tid, key)) = self.model.take() {
            if std::thread::panicking() {
                // A user panic is unwinding through the guard: release
                // ownership without a schedule point so the unwind reaches
                // the lane boundary and gets reported as the model failure.
                shared.mutex_unlock_raw(tid, key);
            } else {
                shared.mutex_unlock(tid, key);
            }
        }
    }
}

/// Instrumented [`std::sync::Condvar`].
pub struct Condvar {
    reg: ModelRef,
    real: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            reg: ModelRef::new(),
            real: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's mutex and parks until notified, then
    /// re-acquires the mutex before returning.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if let Some((shared, tid)) = exec::unwinding_lane() {
            // Nothing in the model runs again to notify an unwinding lane.
            drop(guard);
            shared.abandon(tid);
        }
        match guard.model.take() {
            Some((shared, tid, mutex_key)) => {
                let cv_key = self.reg.key(&shared, tid, KIND_CONDVAR);
                shared.condvar_wait(tid, cv_key, mutex_key);
                while !shared.mutex_try_lock(tid, mutex_key) {}
                guard.model = Some((shared, tid, mutex_key));
                Ok(guard)
            }
            None => {
                let real = guard.real.take().expect("guard is passthrough or model");
                let real = self.real.wait(real).unwrap_or_else(|e| e.into_inner());
                guard.real = Some(real);
                Ok(guard)
            }
        }
    }

    /// [`wait`](Self::wait) in a loop while `condition` holds.
    pub fn wait_while<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: F,
    ) -> LockResult<MutexGuard<'a, T>>
    where
        F: FnMut(&mut T) -> bool,
    {
        while condition(&mut guard) {
            guard = self
                .wait(guard)
                .unwrap_or_else(|_| unreachable!("wait never errs"));
        }
        Ok(guard)
    }

    /// Wakes one waiter (FIFO in the model).
    pub fn notify_one(&self) {
        match exec::current() {
            None => self.real.notify_one(),
            Some((shared, tid)) => {
                let cv_key = self.reg.key(&shared, tid, KIND_CONDVAR);
                shared.condvar_notify(tid, cv_key, false);
            }
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        match exec::current() {
            None => self.real.notify_all(),
            Some((shared, tid)) => {
                let cv_key = self.reg.key(&shared, tid, KIND_CONDVAR);
                shared.condvar_notify(tid, cv_key, true);
            }
        }
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}
