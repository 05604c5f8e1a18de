//! Execution core: the deterministic cooperative scheduler and the DFS
//! explorer over schedules.
//!
//! # How an execution runs
//!
//! Every *model thread* is a real OS thread ("lane"), but exactly one runs at a
//! time: each instrumented operation (mutex acquire and release, condvar wait
//! and notify, spawn, join) is a **yield point** where the running thread,
//! holding the global [`ExecState`] lock, applies the operation's semantics,
//! picks the next thread to run, and parks itself until the baton comes back.
//! The controller drives a depth-first search over the choice tree: each run
//! replays a prefix of choices and extends it with defaults; after the run the
//! deepest choice with an unexplored alternative is bumped and everything
//! below it is discarded (classic stateless model checking).
//!
//! Memory is sequentially consistent: every interleaving of the instrumented
//! operations is explored, but no weak-memory reordering is modeled. The
//! checked code shares state only through mutexes, condvars, spawn and join,
//! whose happens-before edges make every interleaving SC anyway.
//!
//! # Failures and teardown
//!
//! A thread that every live thread waits on with nothing left to release it is
//! a deadlock; a user panic, a deadlock or an exhausted op budget ends the run
//! with the full choice schedule for replay. The run's remaining lanes then
//! unwind with [`AbortToken`], and their destructors fall through to the std
//! mirrors. A destructor that waits on a condvar while its lane unwinds — say
//! a server draining its queues in `Drop` — could never be notified, because
//! no other model thread runs again. Such a lane is **abandoned** instead: the
//! panic it was unwinding is recorded as the failure, and its OS thread is
//! parked for good and never joined, so the failure is reported rather than
//! hanging the checker.

use std::collections::{BTreeMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

/// Model-thread index.
pub(crate) type Tid = usize;

/// Stable cross-run identity of a model object: `(kind, creating thread,
/// per-thread creation counter)`. Because model threads are deterministic
/// functions of their observations, the n-th object a thread touches first is
/// the same logical object in every run — which is what lets state
/// fingerprints compare across schedules.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) struct Key(u64);

pub(crate) const KIND_MUTEX: u64 = 1;
pub(crate) const KIND_CONDVAR: u64 = 2;

impl Key {
    fn new(kind: u64, tid: Tid, counter: u64) -> Key {
        Key(kind << 56 | (tid as u64) << 40 | counter)
    }
}

struct MutexSt {
    owner: Option<Tid>,
}

struct CvSt {
    /// Parked waiters in arrival order (notify_one is FIFO).
    waiting: Vec<Tid>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Block {
    /// Waiting to acquire a mutex.
    Lock(Key),
    /// Parked on a condvar.
    Cv(Key),
    /// Waiting for a thread to finish.
    Join(Tid),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked(Block),
    Finished,
}

struct ThreadSt {
    status: Status,
    /// Rolling hash of this thread's observation sequence (op kind, object,
    /// value). Deterministic threads with equal observation histories are in
    /// equal local states — the soundness basis of state-fingerprint pruning.
    obs_hash: u64,
    ops: u64,
    /// Next per-thread object-creation counter (feeds [`Key`]).
    key_counter: u64,
    /// The lane gave up while unwinding and is never joined (see the module
    /// docs).
    abandoned: bool,
}

impl ThreadSt {
    fn new() -> ThreadSt {
        ThreadSt {
            status: Status::Runnable,
            obs_hash: 0xcbf2_9ce4_8422_2325,
            ops: 0,
            key_counter: 0,
            abandoned: false,
        }
    }
}

/// Why a model run failed. Carried by [`Failure`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// A model thread panicked (assertion failure in the checked code).
    Panic,
    /// No thread can make progress: every live thread is blocked on a lock,
    /// condvar or join that nothing will release.
    Deadlock,
    /// A single schedule exceeded the per-run operation budget
    /// ([`crate::Builder::max_ops`]) — an unbounded loop in the model.
    OpLimit,
}

/// A failed model run: what went wrong plus the exact choice schedule that
/// reaches it. Feed the schedule to [`crate::Builder::replay`] to re-run that
/// interleaving deterministically (e.g. under a debugger or with prints).
#[derive(Clone, Debug)]
pub struct Failure {
    /// The failure class.
    pub kind: FailureKind,
    /// Human-readable description (panic payload, blocked-thread list, …).
    pub message: String,
    /// The complete choice sequence of the failing run.
    pub schedule: Vec<u32>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "model check failed: {:?}: {}", self.kind, self.message)?;
        write!(
            f,
            "failing schedule (replay with Builder::replay): &{:?}",
            self.schedule
        )
    }
}

/// Statistics of a completed exploration.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Schedules (maximal runs) executed.
    pub schedules: u64,
    /// Choice points skipped because their state fingerprint was already
    /// explored.
    pub pruned: u64,
    /// Total instrumented operations executed across all runs.
    pub total_ops: u64,
    /// Whether the DFS exhausted the choice tree within the schedule budget.
    /// `false` means the absence of a failure is *not* a proof.
    pub complete: bool,
    /// Deepest choice stack seen.
    pub max_depth: usize,
}

#[derive(Clone, Debug)]
pub(crate) struct BuilderCfg {
    pub max_preemptions: Option<u32>,
    pub max_schedules: u64,
    pub max_ops: u64,
    pub prune_visited: bool,
}

impl Default for BuilderCfg {
    fn default() -> Self {
        BuilderCfg {
            max_preemptions: None,
            max_schedules: 500_000,
            max_ops: 50_000,
            prune_visited: true,
        }
    }
}

/// The global model state: threads, sync objects, scheduler, and the per-run
/// DFS controller. One instance per [`Builder::check`] call, protected by the
/// [`Shared`] mutex; `visited`/counter fields persist across runs.
///
/// [`Builder::check`]: crate::Builder::check
pub(crate) struct ExecState {
    pub(crate) cfg: BuilderCfg,
    /// Bumped per run so model objects re-register their [`Key`]s.
    pub(crate) generation: u64,
    threads: Vec<ThreadSt>,
    mutexes: BTreeMap<Key, MutexSt>,
    condvars: BTreeMap<Key, CvSt>,
    current: Tid,
    live_threads: usize,
    preemptions: u32,
    run_ops: u64,
    // --- DFS controller (per run) ---
    prefix: Vec<u32>,
    taken: Vec<u32>,
    arity: Vec<u32>,
    explorable: Vec<bool>,
    in_visited_subtree: bool,
    // --- persistent across runs ---
    visited: HashSet<u64>,
    pub(crate) schedules: u64,
    pub(crate) pruned: u64,
    pub(crate) total_ops: u64,
    pub(crate) max_depth: usize,
    pub(crate) failure: Option<Failure>,
    pub(crate) abort: bool,
    pub(crate) done: bool,
    /// Every lane launched this run, with its model thread.
    lanes: Vec<(Tid, std::thread::JoinHandle<()>)>,
    /// Lanes launched this run that have neither exited nor been abandoned.
    lanes_running: usize,
}

impl ExecState {
    fn new(cfg: BuilderCfg) -> ExecState {
        ExecState {
            cfg,
            generation: 0,
            threads: Vec::new(),
            mutexes: BTreeMap::new(),
            condvars: BTreeMap::new(),
            current: 0,
            live_threads: 0,
            preemptions: 0,
            run_ops: 0,
            prefix: Vec::new(),
            taken: Vec::new(),
            arity: Vec::new(),
            explorable: Vec::new(),
            in_visited_subtree: false,
            visited: HashSet::new(),
            schedules: 0,
            pruned: 0,
            total_ops: 0,
            max_depth: 0,
            failure: None,
            abort: false,
            done: false,
            lanes: Vec::new(),
            lanes_running: 0,
        }
    }

    fn reset_for_run(&mut self, prefix: Vec<u32>) {
        self.generation += 1;
        self.threads.clear();
        self.threads.push(ThreadSt::new());
        self.mutexes.clear();
        self.condvars.clear();
        self.current = 0;
        self.live_threads = 1;
        self.lanes_running = 1;
        self.preemptions = 0;
        self.run_ops = 0;
        self.prefix = prefix;
        self.taken.clear();
        self.arity.clear();
        self.explorable.clear();
        self.in_visited_subtree = false;
        self.failure = None;
        self.abort = false;
        self.done = false;
    }

    pub(crate) fn alloc_key(&mut self, kind: u64, tid: Tid) -> Key {
        let c = self.threads[tid].key_counter;
        self.threads[tid].key_counter += 1;
        Key::new(kind, tid, c)
    }

    fn record_failure(&mut self, kind: FailureKind, message: String) {
        if self.failure.is_none() {
            self.failure = Some(Failure {
                kind,
                message,
                schedule: self.taken.clone(),
            });
        }
        self.abort = true;
        self.done = true;
    }

    fn wake_blocked_on(&mut self, b: Block) {
        for th in self.threads.iter_mut() {
            if th.status == Status::Blocked(b) {
                th.status = Status::Runnable;
            }
        }
    }

    /// One DFS choice among `n` alternatives. `tag` distinguishes the choice
    /// context inside the state fingerprint used for pruning.
    fn choose(&mut self, n: u32, tag: u64) -> u32 {
        debug_assert!(n >= 2);
        let idx = self.taken.len();
        let replaying = idx < self.prefix.len();
        // Visited-state pruning is only consulted *past* the replayed prefix:
        // states along the prefix trivially repeat across backtracking runs,
        // and the backtracker only ever re-enters subtrees whose alternatives
        // it still owns. A fingerprint seen on a genuinely different path
        // means the whole subtree was (or will be, via the first visitor's
        // registered alternatives) explored once already.
        if self.cfg.prune_visited && !replaying && !self.in_visited_subtree {
            let fp = self.fingerprint(tag);
            if !self.visited.insert(fp) {
                self.in_visited_subtree = true;
                self.pruned += 1;
            }
        }
        let c = if replaying {
            self.prefix[idx].min(n - 1)
        } else {
            0
        };
        self.taken.push(c);
        self.arity.push(n);
        // Alternatives below a visited state were all explored from the first
        // visit and must not be registered again; because the flag stops
        // registration for the rest of the run, no backtracking prefix ever
        // extends past a pruned point, so replayed choices are always ones
        // the backtracker legitimately owns.
        self.explorable.push(!self.in_visited_subtree);
        self.max_depth = self.max_depth.max(self.taken.len());
        c
    }

    /// Deterministic fingerprint of the *entire* model state. Two runs
    /// reaching equal fingerprints have behaviourally identical futures
    /// (threads are deterministic in their observation histories), so the
    /// subtree only needs exploring once.
    fn fingerprint(&self, tag: u64) -> u64 {
        let mut h = Fnv::new();
        h.write(tag);
        h.write(self.preemptions as u64);
        h.write(self.current as u64);
        for th in &self.threads {
            h.write(match th.status {
                Status::Runnable => 1,
                Status::Finished => 2,
                Status::Blocked(Block::Lock(k)) => 4 ^ k.0,
                Status::Blocked(Block::Cv(k)) => 5 ^ k.0,
                Status::Blocked(Block::Join(t)) => 6 ^ ((t as u64) << 8),
            });
            h.write(th.ops);
            h.write(th.obs_hash);
        }
        for (k, m) in &self.mutexes {
            h.write(k.0);
            h.write(m.owner.map(|t| t as u64 + 1).unwrap_or(0));
        }
        for (k, cv) in &self.condvars {
            h.write(k.0);
            for &t in &cv.waiting {
                h.write(t as u64);
            }
        }
        h.finish()
    }

    fn observe(&mut self, tid: Tid, op_kind: u64, key: Key, value: u64) {
        let th = &mut self.threads[tid];
        let mut h = Fnv::from(th.obs_hash);
        h.write(op_kind);
        h.write(key.0);
        h.write(value);
        th.obs_hash = h.finish();
        th.ops += 1;
        self.run_ops += 1;
        self.total_ops += 1;
    }
}

/// Reason the op code hands control back to the scheduler.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Came {
    /// Ordinary op; the current thread is still runnable.
    Op,
    /// Current thread just blocked (status already set).
    Blocked,
    /// Current thread finished.
    Finished,
}

/// Panic payload used to unwind model threads out of user code when an
/// execution is aborted (failure found or exploration stopped).
pub(crate) struct AbortToken;

/// Shared handle between the controller, the lanes and the shims.
pub(crate) struct Shared {
    pub(crate) st: Mutex<ExecState>,
    pub(crate) cv: Condvar,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Shared>, Tid)>> =
        const { std::cell::RefCell::new(None) };
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Message of the user panic this lane is unwinding, if any; reported if
    /// the lane has to be abandoned before it reaches the lane boundary.
    static UNWINDING: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

/// The `(shared, tid)` context of the calling thread, if it is a model thread
/// inside an active execution.
///
/// Returns `None` while the thread is unwinding: destructors that run during
/// a failure unwind must not re-enter the scheduler — a schedule point there
/// would raise a second panic inside the unwind and abort the process. Their
/// shim ops fall through to the std mirrors instead (see [`unwinding_lane`]
/// for the ops that would block there).
pub(crate) fn current() -> Option<(Arc<Shared>, Tid)> {
    if std::thread::panicking() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// The `(shared, tid)` context of the calling thread if it is a model thread
/// that is unwinding. A condvar wait on such a lane must call
/// [`Shared::abandon`] instead: nothing else in the model will run to notify
/// it.
pub(crate) fn unwinding_lane() -> Option<(Arc<Shared>, Tid)> {
    if !std::thread::panicking() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// The choice schedule taken so far in the current run (for printing pinned
/// regression schedules from probe sites). Empty outside a model run.
pub fn current_schedule() -> Vec<u32> {
    match current() {
        Some((shared, _)) => shared.st.lock().expect("conc state").taken.clone(),
        None => Vec::new(),
    }
}

/// The message of a panic payload (`&str` or `String`, as `panic!` makes).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked".to_string()
    }
}

fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                previous(info);
                return;
            }
            // On a lane: remember what a user panic said, in case the unwind
            // gets abandoned before `catch_unwind` can report the payload.
            let payload = info.payload();
            let message = (!payload.is::<AbortToken>()).then(|| panic_message(payload));
            UNWINDING.with(|u| *u.borrow_mut() = message);
        }));
    });
}

impl Shared {
    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Picks and installs the next thread to run. Must be called with the
    /// state lock held; notifies all parked lanes.
    fn schedule_next(&self, st: &mut ExecState, tid: Tid, came: Came) {
        let runnable: Vec<Tid> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if !runnable.is_empty() {
            st.current = self.pick(st, &runnable, tid, came);
        } else if st.live_threads == 0 {
            st.done = true;
        } else {
            let blocked: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != Status::Finished)
                .map(|(i, t)| format!("thread {} {:?}", i, t.status))
                .collect();
            st.record_failure(
                FailureKind::Deadlock,
                format!("no runnable thread; live: [{}]", blocked.join(", ")),
            );
        }
        self.cv.notify_all();
    }

    fn pick(&self, st: &mut ExecState, runnable: &[Tid], tid: Tid, came: Came) -> Tid {
        let cur_ok = came == Came::Op && runnable.contains(&tid);
        if runnable.len() == 1 {
            return runnable[0];
        }
        if cur_ok {
            if let Some(budget) = st.cfg.max_preemptions {
                if st.preemptions >= budget {
                    return tid; // budget spent: run the current thread on
                }
            }
        }
        // Option 0 is "continue current" when possible, so default-choice
        // paths are the low-preemption ones and bounded DFS visits them first.
        let mut options: Vec<Tid> = Vec::with_capacity(runnable.len());
        if cur_ok {
            options.push(tid);
        }
        options.extend(runnable.iter().copied().filter(|&t| !cur_ok || t != tid));
        let idx = st.choose(options.len() as u32, 0);
        let next = options[idx as usize];
        if cur_ok && next != tid {
            st.preemptions += 1;
        }
        next
    }

    /// Parks the calling lane until the scheduler hands it the baton (or the
    /// execution aborts, in which case the lane unwinds via [`AbortToken`]).
    fn wait_for_turn(&self, mut guard: MutexGuard<'_, ExecState>, tid: Tid) {
        loop {
            if guard.abort {
                drop(guard);
                panic::panic_any(AbortToken);
            }
            if guard.current == tid && guard.threads[tid].status == Status::Runnable {
                return;
            }
            guard = self.cv.wait(guard).expect("conc state poisoned");
        }
    }

    /// Standard op epilogue: schedule the next thread, park until re-granted.
    fn reschedule(&self, mut guard: MutexGuard<'_, ExecState>, tid: Tid, came: Came) {
        if guard.run_ops >= guard.cfg.max_ops {
            let message = format!("run exceeded max_ops = {}", guard.cfg.max_ops);
            guard.record_failure(FailureKind::OpLimit, message);
            self.cv.notify_all();
            drop(guard);
            panic::panic_any(AbortToken);
        }
        self.schedule_next(&mut guard, tid, came);
        if came == Came::Finished {
            return; // the lane is about to exit; nothing to wait for
        }
        self.wait_for_turn(guard, tid);
    }

    /// Locks the state for an op of a live (non-unwinding) model thread,
    /// unwinding with [`AbortToken`] instead if the run is over.
    fn lock_live(&self) -> MutexGuard<'_, ExecState> {
        let st = self.st.lock().expect("conc state poisoned");
        if st.abort {
            drop(st);
            panic::panic_any(AbortToken);
        }
        st
    }

    // ------------------------------------------------------------------
    // Mutex / condvar ops
    // ------------------------------------------------------------------

    /// One lock attempt: acquires and returns `true`, or blocks until the
    /// owner unlocks and returns `false` (the shim loops).
    pub(crate) fn mutex_try_lock(self: &Arc<Self>, tid: Tid, key: Key) -> bool {
        let mut st = self.lock_live();
        let m = st.mutexes.entry(key).or_insert(MutexSt { owner: None });
        if m.owner.is_none() {
            m.owner = Some(tid);
            st.observe(tid, 5, key, 1);
            self.reschedule(st, tid, Came::Op);
            true
        } else {
            st.threads[tid].status = Status::Blocked(Block::Lock(key));
            st.observe(tid, 5, key, 0);
            self.schedule_next_locked(st, tid);
            false
        }
    }

    /// `schedule_next` + `wait_for_turn` for a thread that just blocked.
    fn schedule_next_locked(&self, mut guard: MutexGuard<'_, ExecState>, tid: Tid) {
        self.schedule_next(&mut guard, tid, Came::Blocked);
        self.wait_for_turn(guard, tid);
    }

    pub(crate) fn mutex_unlock(self: &Arc<Self>, tid: Tid, key: Key) {
        let mut st = self.st.lock().expect("conc state poisoned");
        if st.abort {
            return;
        }
        let m = st.mutexes.get_mut(&key).expect("unlock of unknown mutex");
        debug_assert_eq!(m.owner, Some(tid), "unlock by non-owner");
        m.owner = None;
        st.wake_blocked_on(Block::Lock(key));
        st.observe(tid, 6, key, 0);
        self.reschedule(st, tid, Came::Op);
    }

    /// Atomically: enqueue on the condvar, release the mutex, park. Returns
    /// once notified *and* scheduled; the shim then re-acquires the mutex.
    pub(crate) fn condvar_wait(self: &Arc<Self>, tid: Tid, cv_key: Key, mutex_key: Key) {
        let mut st = self.lock_live();
        let m = st
            .mutexes
            .get_mut(&mutex_key)
            .expect("condvar wait without a locked mutex");
        debug_assert_eq!(m.owner, Some(tid), "condvar wait by non-owner");
        m.owner = None;
        st.wake_blocked_on(Block::Lock(mutex_key));
        st.condvars
            .entry(cv_key)
            .or_insert_with(|| CvSt {
                waiting: Vec::new(),
            })
            .waiting
            .push(tid);
        st.threads[tid].status = Status::Blocked(Block::Cv(cv_key));
        st.observe(tid, 7, cv_key, 0);
        self.schedule_next_locked(st, tid);
    }

    pub(crate) fn condvar_notify(self: &Arc<Self>, tid: Tid, cv_key: Key, all: bool) {
        let mut st = self.st.lock().expect("conc state poisoned");
        if st.abort {
            return;
        }
        let cv = st.condvars.entry(cv_key).or_insert_with(|| CvSt {
            waiting: Vec::new(),
        });
        let woken: Vec<Tid> = if all {
            cv.waiting.drain(..).collect()
        } else if cv.waiting.is_empty() {
            Vec::new()
        } else {
            vec![cv.waiting.remove(0)]
        };
        let n = woken.len() as u64;
        for t in woken {
            st.threads[t].status = Status::Runnable;
        }
        st.observe(tid, 8, cv_key, n);
        self.reschedule(st, tid, Came::Op);
    }

    // ------------------------------------------------------------------
    // Thread ops
    // ------------------------------------------------------------------

    /// Registers a child thread and its lane, and returns its tid. The caller
    /// launches the lane.
    pub(crate) fn thread_create(self: &Arc<Self>) -> Tid {
        let mut st = self.lock_live();
        let child = st.threads.len();
        st.threads.push(ThreadSt::new());
        st.live_threads += 1;
        st.lanes_running += 1;
        child
    }

    /// Yield point right after a spawn (the child is now schedulable).
    pub(crate) fn after_spawn(
        self: &Arc<Self>,
        tid: Tid,
        child: Tid,
        handle: std::thread::JoinHandle<()>,
    ) {
        let mut st = self.st.lock().expect("conc state poisoned");
        st.lanes.push((child, handle));
        if st.abort {
            drop(st);
            panic::panic_any(AbortToken);
        }
        st.observe(tid, 9, Key(0), 0);
        self.reschedule(st, tid, Came::Op);
    }

    /// One join attempt: `true` once the target finished, else blocks and
    /// returns `false`.
    pub(crate) fn thread_try_join(self: &Arc<Self>, tid: Tid, target: Tid) -> bool {
        let mut st = self.lock_live();
        if st.threads[target].status == Status::Finished {
            st.observe(tid, 10, Key(0), target as u64);
            self.reschedule(st, tid, Came::Op);
            true
        } else {
            st.threads[tid].status = Status::Blocked(Block::Join(target));
            st.observe(tid, 10, Key(0), u64::MAX);
            self.schedule_next_locked(st, tid);
            false
        }
    }

    /// Marks the calling thread finished and schedules on. The lane exits
    /// after this returns.
    pub(crate) fn thread_finish(self: &Arc<Self>, tid: Tid) {
        let mut st = self.st.lock().expect("conc state poisoned");
        if st.abort {
            return;
        }
        st.threads[tid].status = Status::Finished;
        st.live_threads -= 1;
        st.wake_blocked_on(Block::Join(tid));
        self.schedule_next(&mut st, tid, Came::Finished);
    }

    /// Records a panic from user code as a model failure and aborts the run.
    fn record_panic(&self, message: String) {
        let mut st = self.st.lock().expect("conc state poisoned");
        st.record_failure(FailureKind::Panic, message);
        self.cv.notify_all();
    }

    /// Gives up on lane `tid`, which is unwinding and reached a condvar wait:
    /// records the panic it was unwinding as the run's failure
    /// (an [`AbortToken`] unwind means one is already recorded), then parks
    /// the OS thread for good. The explorer never joins an abandoned lane.
    pub(crate) fn abandon(&self, tid: Tid) -> ! {
        let message = UNWINDING.with(|u| u.borrow_mut().take());
        {
            let mut st = self.st.lock().unwrap_or_else(PoisonError::into_inner);
            st.record_failure(
                FailureKind::Panic,
                message.unwrap_or_else(|| "model thread blocked while unwinding".to_string()),
            );
            st.threads[tid].abandoned = true;
            st.lanes_running -= 1;
            self.cv.notify_all();
        }
        loop {
            std::thread::park();
        }
    }

    /// `wait_for_turn` for lane entry, where an abort must *not* panic (the
    /// lane simply never starts the closure). Returns whether to run.
    fn wait_for_turn_entry(&self, mut guard: MutexGuard<'_, ExecState>, tid: Tid) -> bool {
        loop {
            if guard.abort {
                return false;
            }
            if guard.current == tid && guard.threads[tid].status == Status::Runnable {
                return true;
            }
            guard = self.cv.wait(guard).expect("conc state poisoned");
        }
    }

    /// Releases a mutex without a schedule point. Used by guard drops during
    /// an unwind, where the thread must reach the lane boundary (to report
    /// the panic) without parking again.
    pub(crate) fn mutex_unlock_raw(self: &Arc<Self>, tid: Tid, key: Key) {
        let mut st = self.st.lock().expect("conc state poisoned");
        if let Some(m) = st.mutexes.get_mut(&key) {
            if m.owner == Some(tid) {
                m.owner = None;
            }
        }
    }

    /// Whether model thread `target` has finished (for `JoinHandle::is_finished`).
    pub(crate) fn thread_finished(&self, target: Tid) -> bool {
        let st = self.st.lock().expect("conc state poisoned");
        st.threads
            .get(target)
            .map(|t| t.status == Status::Finished)
            .unwrap_or(false)
    }
}

/// Launches a lane OS thread for model thread `tid` running `body`. The lane
/// parks until first scheduled, runs the closure to completion (or abort),
/// and reports finish/panic into the shared state.
pub(crate) fn launch_lane(
    shared: Arc<Shared>,
    tid: Tid,
    body: Box<dyn FnOnce() + Send>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("conc-lane-{tid}"))
        .spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&shared), tid)));
            SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
            let run = {
                let guard = shared.st.lock().expect("conc state poisoned");
                shared.wait_for_turn_entry(guard, tid)
            };
            if run {
                match panic::catch_unwind(AssertUnwindSafe(body)) {
                    Ok(()) => shared.thread_finish(tid),
                    Err(payload) => {
                        if !payload.is::<AbortToken>() {
                            shared.record_panic(panic_message(payload.as_ref()));
                        }
                    }
                }
            }
            SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
            UNWINDING.with(|u| *u.borrow_mut() = None);
            CURRENT.with(|c| *c.borrow_mut() = None);
            let mut st = shared.st.lock().expect("conc state poisoned");
            st.lanes_running -= 1;
            shared.cv.notify_all();
        })
        .expect("spawn conc lane")
}

/// Lazily registers a model object's [`Key`] once per execution generation.
/// Embedded in every shim type; `const`-constructible so shim `new`s stay
/// `const fn` like their std counterparts.
pub(crate) struct ModelRef {
    slot: Mutex<(u64, Option<Key>)>,
}

impl ModelRef {
    pub(crate) const fn new() -> ModelRef {
        ModelRef {
            slot: Mutex::new((0, None)),
        }
    }

    /// The object's key in the current execution, allocating on first touch.
    /// Keys are `(kind, first-touching tid, per-thread counter)` — a
    /// deterministic function of the toucher's history, hence stable across
    /// runs and usable inside state fingerprints.
    pub(crate) fn key(&self, shared: &Arc<Shared>, tid: Tid, kind: u64) -> Key {
        let mut st = shared.st.lock().expect("conc state poisoned");
        let generation = st.generation;
        let mut slot = self.slot.lock().expect("conc registration poisoned");
        if slot.0 != generation || slot.1.is_none() {
            *slot = (generation, Some(st.alloc_key(kind, tid)));
        }
        slot.1.expect("key registered above")
    }
}

/// Runs the DFS exploration for [`crate::Builder`]. `replay_only` runs exactly
/// one schedule (`initial_prefix`) without exploring alternatives.
pub(crate) fn explore(
    cfg: BuilderCfg,
    f: Arc<dyn Fn() + Send + Sync>,
    initial_prefix: Vec<u32>,
    replay_only: bool,
) -> Result<Report, Failure> {
    install_panic_hook();
    let shared = Arc::new(Shared {
        st: Mutex::new(ExecState::new(cfg.clone())),
        cv: Condvar::new(),
    });
    let mut prefix = initial_prefix;
    loop {
        {
            let mut st = shared.st.lock().expect("conc state poisoned");
            st.reset_for_run(std::mem::take(&mut prefix));
        }
        let root = {
            let shared = Arc::clone(&shared);
            let f = Arc::clone(&f);
            launch_lane(Arc::clone(&shared), 0, Box::new(move || f()))
        };
        let lanes = {
            let mut st = shared.st.lock().expect("conc state poisoned");
            st.lanes.push((0, root));
            // The baton was granted to thread 0 by `reset_for_run`, *before*
            // the lane existed — it must not be touched here: the lane may
            // already be mid-run, and re-assigning `current` would hand the
            // baton to a second thread concurrently.
            while !st.done {
                st = shared.cv.wait(st).expect("conc state poisoned");
            }
            // Unwind any still-parked lanes, and wait until each has exited or
            // been abandoned.
            st.abort = true;
            shared.cv.notify_all();
            while st.lanes_running > 0 {
                st = shared.cv.wait(st).expect("conc state poisoned");
            }
            let lanes: Vec<_> = st.lanes.drain(..).collect();
            lanes
                .into_iter()
                .filter(|(tid, _)| !st.threads[*tid].abandoned)
                .collect::<Vec<_>>()
        };
        for (_, h) in lanes {
            let _ = h.join();
        }
        let mut st = shared.st.lock().expect("conc state poisoned");
        st.schedules += 1;
        if let Some(mut failure) = st.failure.take() {
            failure.schedule = std::mem::take(&mut st.taken);
            return Err(failure);
        }
        if replay_only {
            return Ok(report_of(&st, true));
        }
        // Backtrack: bump the deepest explorable choice with an alternative.
        let mut next_prefix: Option<Vec<u32>> = None;
        for i in (0..st.taken.len()).rev() {
            if st.explorable[i] && st.taken[i] + 1 < st.arity[i] {
                let mut p = st.taken[..i].to_vec();
                p.push(st.taken[i] + 1);
                next_prefix = Some(p);
                break;
            }
        }
        match next_prefix {
            None => return Ok(report_of(&st, true)),
            Some(p) => {
                if st.schedules >= st.cfg.max_schedules {
                    return Ok(report_of(&st, false));
                }
                prefix = p;
            }
        }
    }
}

fn report_of(st: &ExecState, complete: bool) -> Report {
    Report {
        schedules: st.schedules,
        pruned: st.pruned,
        total_ops: st.total_ops,
        complete,
        max_depth: st.max_depth,
    }
}

/// FNV-1a, used everywhere a deterministic (non-randomized) hash is needed.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub(crate) fn from(state: u64) -> Fnv {
        Fnv(state)
    }
    pub(crate) fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}
