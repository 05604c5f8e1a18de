//! Instrumented thread spawn/join, API-compatible with the subset of
//! `std::thread` the engine uses.
//!
//! In a model execution, `spawn` registers a *model thread* (inheriting the
//! parent's memory view — the spawn happens-before edge) whose closure runs
//! on a dedicated OS lane under the cooperative scheduler; `join` is a
//! blocking scheduler op that propagates the child's final view. Outside a
//! model execution everything passes through to std.

use std::sync::{Arc, Mutex};

use crate::exec::{self, AbortToken, Shared, Tid};

/// Instrumented [`std::thread::JoinHandle`].
pub struct JoinHandle<T> {
    inner: Inner<T>,
}

enum Inner<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        shared: Arc<Shared>,
        target: Tid,
        result: Arc<Mutex<Option<T>>>,
    },
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its value. In the model
    /// this is a scheduler join (with view propagation); a child that never
    /// produced a value means the execution is aborting, and the join
    /// unwinds with the abort token instead of returning.
    ///
    /// A destructor joining during a failure unwind (a pool shutting down in
    /// its `Drop`) is outside the scheduler: the join returns `Err` at once
    /// instead of blocking, and the aborting execution tears the lane down.
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            Inner::Std(h) => h.join(),
            Inner::Model {
                shared,
                target,
                result,
            } => {
                let Some((cur_shared, tid)) = exec::current() else {
                    return Err(Box::new(AbortToken));
                };
                debug_assert!(Arc::ptr_eq(&cur_shared, &shared));
                while !shared.thread_try_join(tid, target) {}
                match result.lock().expect("result slot poisoned").take() {
                    Some(v) => Ok(v),
                    None => std::panic::panic_any(AbortToken),
                }
            }
        }
    }

    /// Whether the thread has finished (without blocking).
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            Inner::Std(h) => h.is_finished(),
            Inner::Model { shared, target, .. } => shared.thread_finished(*target),
        }
    }
}

/// Instrumented [`std::thread::Builder`] (name-only subset).
#[derive(Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    /// Creates a builder with no name set.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Names the thread (used for the OS lane in both modes).
    pub fn name(mut self, name: String) -> Builder {
        self.name = Some(name);
        self
    }

    /// Spawns the thread. Model-mode spawning cannot fail.
    pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match exec::current() {
            None => {
                let mut b = std::thread::Builder::new();
                if let Some(n) = self.name {
                    b = b.name(n);
                }
                b.spawn(f).map(|h| JoinHandle {
                    inner: Inner::Std(h),
                })
            }
            Some((shared, parent)) => {
                let target = shared.thread_create(parent);
                let result = Arc::new(Mutex::new(None));
                let slot = Arc::clone(&result);
                let lane = exec::launch_lane(
                    Arc::clone(&shared),
                    target,
                    Box::new(move || {
                        let v = f();
                        *slot.lock().expect("result slot poisoned") = Some(v);
                    }),
                );
                shared.after_spawn(parent, lane);
                Ok(JoinHandle {
                    inner: Inner::Model {
                        shared,
                        target,
                        result,
                    },
                })
            }
        }
    }
}

/// Instrumented [`std::thread::spawn`].
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("failed to spawn thread")
}

/// Instrumented [`std::thread::yield_now`]. In the model the caller blocks
/// until another thread mutates shared state (the fair reading of "yield so
/// someone else can make progress"), which keeps spin loops finite and makes
/// true livelocks detectable.
pub fn yield_now() {
    match exec::current() {
        None => std::thread::yield_now(),
        Some((shared, tid)) => shared.yield_op(tid),
    }
}
