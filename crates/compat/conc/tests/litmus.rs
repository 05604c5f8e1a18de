//! Litmus tests for the model checker itself: classic scheduling shapes where
//! the expected verdict (bug found / verified absent) is known from first
//! principles. These run in tier-1 CI and are the evidence that the engine
//! and server model suites' green results mean something.

use std::sync::Arc;

use conc::sync::{Condvar, Mutex};
use conc::{model, Builder, FailureKind};

/// ABBA lock ordering: the checker must find the deadlock.
#[test]
fn abba_deadlock_found() {
    let result = Builder::new().check(|| {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = conc::thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        }
        t.join().unwrap();
    });
    let failure = result.expect_err("ABBA must deadlock in some schedule");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(!failure.schedule.is_empty(), "schedule must be replayable");
}

/// Classic lost wakeup: the waiter checks the flag under a different mutex
/// than the one it parks with, and the notifier never takes the parking
/// mutex, so the notify can fire between check and park. Must be detected as
/// a deadlock.
#[test]
fn condvar_lost_wakeup_found() {
    let result = Builder::new().check(|| {
        let ready = Arc::new(Mutex::new(false));
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let (r2, p2) = (Arc::clone(&ready), Arc::clone(&pair));
        let notifier = conc::thread::spawn(move || {
            *r2.lock().unwrap() = true;
            p2.1.notify_all();
        });
        // BUG: correct code keeps the predicate under the mutex the waiter
        // parks with, and the notifier takes that mutex.
        let guard = pair.0.lock().unwrap();
        let is_ready = *ready.lock().unwrap();
        if !is_ready {
            let _guard = pair.1.wait(guard).unwrap();
        }
        notifier.join().unwrap();
    });
    let failure = result.expect_err("lost wakeup must deadlock in some schedule");
    assert_eq!(failure.kind, FailureKind::Deadlock);
}

/// The corrected protocol — notifier takes the mutex before notifying — has
/// no lost wakeup in any schedule.
#[test]
fn condvar_handshake_safe() {
    model(|| {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&state);
        let notifier = conc::thread::spawn(move || {
            *s2.0.lock().unwrap() = true;
            s2.1.notify_all();
        });
        let guard = state.0.lock().unwrap();
        let _guard = state.1.wait_while(guard, |done| !*done).unwrap();
        notifier.join().unwrap();
    });
}

/// A replayed failing schedule reproduces the identical failure, and replay
/// runs exactly one schedule.
#[test]
fn replay_reproduces_failure() {
    let shape = || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = conc::thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        }
        t.join().unwrap();
    };
    let failure = Builder::new().check(shape).expect_err("ABBA deadlocks");
    let replayed = Builder::new()
        .replay(&failure.schedule, shape)
        .expect_err("replay must hit the same deadlock");
    assert_eq!(replayed.kind, FailureKind::Deadlock);
}

/// A read-modify-write split over two critical sections: the update one
/// thread makes between the other's read and write is lost.
fn lost_update_shape() {
    let x = Arc::new(Mutex::new(0u32));
    let x2 = Arc::clone(&x);
    let t = conc::thread::spawn(move || {
        let v = *x2.lock().unwrap();
        *x2.lock().unwrap() = v + 1;
    });
    let v = *x.lock().unwrap();
    *x.lock().unwrap() = v + 1;
    t.join().unwrap();
    assert_eq!(*x.lock().unwrap(), 2, "lost update");
}

/// Exploration statistics are sane: a two-thread interleaving problem has
/// more than one schedule, completes, and pruning fires.
#[test]
fn report_counts_schedules() {
    let report = Builder::new()
        .check(|| {
            let x = Arc::new(Mutex::new(0u32));
            let x2 = Arc::clone(&x);
            let t = conc::thread::spawn(move || {
                *x2.lock().unwrap() += 1;
                *x2.lock().unwrap() += 1;
            });
            *x.lock().unwrap() += 1;
            t.join().unwrap();
            assert_eq!(*x.lock().unwrap(), 3);
        })
        .expect("counter shape is correct");
    assert!(report.complete, "small shape must be exhausted: {report:?}");
    assert!(
        report.schedules > 1,
        "interleavings must branch: {report:?}"
    );
    assert!(report.pruned > 0, "equal states must be pruned: {report:?}");
    assert!(report.total_ops > 0);
}

/// Passthrough mode: outside `check`, the shims behave as plain std types
/// across real threads.
#[test]
fn passthrough_outside_model() {
    let counter = Arc::new(Mutex::new(0usize));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let counter = Arc::clone(&counter);
            let gate = Arc::clone(&gate);
            conc::thread::spawn(move || {
                let guard = gate.0.lock().unwrap();
                let _guard = gate.1.wait_while(guard, |open| !*open).unwrap();
                *counter.lock().unwrap() += 1;
            })
        })
        .collect();
    {
        let mut open = gate.0.lock().unwrap();
        *open = true;
    }
    gate.1.notify_all();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*counter.lock().unwrap(), 4);
}

/// Preemption bounding: the lost update needs one preemption (between the
/// read and the write), so a 0-preemption search verifies the shape while a
/// 1-preemption search refutes it — the bound is a real knob.
#[test]
fn preemption_bound_is_effective() {
    let bounded = Builder::new()
        .max_preemptions(0)
        .check(lost_update_shape)
        .expect("no interleaving without a preemption loses the update");
    assert!(bounded.complete);
    let failure = Builder::new()
        .max_preemptions(1)
        .check(lost_update_shape)
        .expect_err("one preemption is enough to lose the update");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("lost update"), "got {failure}");
}

/// Waits in `Drop` until a flag is set: the shape of a server that drains its
/// queues when dropped.
struct DrainOnDrop(Arc<(Mutex<bool>, Condvar)>);

impl Drop for DrainOnDrop {
    fn drop(&mut self) {
        let guard = self.0 .0.lock().unwrap();
        let _guard = self.0 .1.wait_while(guard, |done| !*done).unwrap();
    }
}

/// A user panic while a [`DrainOnDrop`] whose flag nothing has set is alive:
/// the unwinding thread must not wait for it, and the failure must carry the
/// user's message — whether the main thread fails, or a spawned thread fails
/// and the main thread unwinds out of joining it.
#[test]
fn failure_with_a_blocking_destructor_is_reported() {
    for in_child in [false, true] {
        let result = Builder::new().check(move || {
            let _drain = DrainOnDrop(Arc::new((Mutex::new(false), Condvar::new())));
            let failing = conc::thread::spawn(move || {
                assert!(!in_child, "user failure in the child");
            });
            assert!(in_child, "user failure in the main thread");
            failing.join().unwrap();
        });
        let failure = result.expect_err("the assertion must be reported");
        assert_eq!(failure.kind, FailureKind::Panic);
        let expected = if in_child { "child" } else { "main thread" };
        assert!(
            failure.message.contains(expected),
            "unexpected failure: {failure}"
        );
    }
}
