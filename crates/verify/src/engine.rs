//! The exploration engine: an operational release/acquire memory model plus a
//! replay-based DFS scheduler.
//!
//! ## Memory model
//!
//! Each atomic location keeps its full **modification order** as a list of store
//! events; each model thread carries a **view** — for every location, the timestamp of
//! the newest store it is obliged to observe.  A load may read *any* store no older
//! than the thread's view (stale reads are explicit nondeterminism, explored by the
//! DFS), an `Acquire` load additionally joins the release-view attached to the store
//! it reads, and a `Release` store attaches the storing thread's view for later
//! acquirers.  Read-modify-writes always read the newest store (atomicity).  `SeqCst`
//! is approximated with a global SC view: `SeqCst` stores, RMWs, and fences publish
//! the acting thread's view into it, and every `SeqCst` operation first absorbs it —
//! strong enough to prove the doorbell protocol, weak enough that deleting the
//! producer-side fence re-exposes the lost-wakeup interleaving (see the seeded-bug
//! tests).  Two deliberate restrictions keep the model finite and are documented
//! assumptions, not theorems: stores are appended at the tail of modification order,
//! and a thread that has yielded reads fresh values on its next action (eventual
//! visibility — without it every spin loop is an infinite stale-read path).
//!
//! ## Scheduler
//!
//! An execution is replayed deterministically from a **decision tape**: every point
//! with more than one possibility (which runnable thread steps next, which store a
//! load reads, which parked thread a notify wakes) consults the tape, appending a
//! first-choice entry when it runs off the end.  After each execution the tape
//! backtracks odometer-style, so the search enumerates every interleaving and every
//! read choice exactly once.  Pruning: threads that yielded are not rescheduled until
//! another thread makes progress (spin steps commute), singleton choices consume no
//! tape entry, unreadable stores are garbage-collected, and whole states are
//! fingerprinted — a state reached twice by different prefixes is explored only once,
//! which is sound because the tape exhausts a state's subtree before any decision
//! above it changes.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;

/// Index of an atomic location registered with [`Exec::new_loc`].
pub type Loc = usize;
/// Index of a modeled mutex registered with [`Exec::new_mutex`].
pub type MutexId = usize;
/// Index of a modeled condition variable registered with [`Exec::new_condvar`].
pub type CvId = usize;
/// Index of a model thread (position in the vector returned by the scenario builder).
pub type ThreadId = usize;

/// Per-execution step budget: exceeding it means the pruning failed to cut a spin
/// cycle, which is reported as a livelock rather than looping forever.
const MAX_STEPS: usize = 100_000;
/// Total execution budget per exploration; reports `complete = false` when hit.
const MAX_EXECUTIONS: u64 = 50_000_000;

#[derive(Clone, Debug, Hash)]
struct StoreEvt {
    /// Per-location timestamp (position in modification order, never reused).
    ts: u32,
    val: u64,
    /// View snapshot attached by `Release`-or-stronger stores; `Acquire`-or-stronger
    /// loads that read this store join it.
    rel_view: Option<Vec<u32>>,
}

struct LocHist {
    name: &'static str,
    stores: Vec<StoreEvt>,
}

struct ModelMutex {
    owner: Option<ThreadId>,
    /// View released by the last unlock; joined by the next lock.
    rel_view: Vec<u32>,
}

/// Scheduler-visible thread state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum TState {
    Ready,
    /// Spinning or lock-blocked: not rescheduled until another thread progresses.
    Yielded,
    Parked(CvId),
    Done,
}

#[derive(Clone, Copy, Debug)]
struct Decision {
    chosen: usize,
    arity: usize,
}

/// The replay tape: one entry per nondeterministic decision in execution order.
struct Tape {
    decisions: Vec<Decision>,
    pos: usize,
    /// Length of the replayed prefix at execution start; fingerprint pruning is
    /// suppressed until the tape is past it (see module docs).
    boundary: usize,
}

impl Tape {
    fn choose(&mut self, arity: usize) -> usize {
        debug_assert!(arity >= 1);
        if arity == 1 {
            return 0;
        }
        let chosen = if self.pos < self.decisions.len() {
            let d = self.decisions[self.pos];
            debug_assert_eq!(d.arity, arity, "nondeterministic replay: arity changed");
            d.chosen
        } else {
            self.decisions.push(Decision { chosen: 0, arity });
            0
        };
        self.pos += 1;
        chosen
    }

    /// Advance to the next untried decision sequence; `false` when exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(last) = self.decisions.last_mut() {
            if last.chosen + 1 < last.arity {
                last.chosen += 1;
                self.pos = 0;
                self.boundary = self.decisions.len();
                return true;
            }
            self.decisions.pop();
        }
        false
    }
}

/// The shared execution context handed to model threads: atomic locations, modeled
/// mutexes/condvars, the decision tape, and the action log.  All methods take `&self`
/// (interior mutability) so instrumented cells can implement the `mpsim::proto` cell
/// traits, whose methods take `&self` exactly like `std::sync::atomic` types.
pub struct Exec {
    inner: RefCell<Inner>,
}

struct Inner {
    locs: Vec<LocHist>,
    views: Vec<Vec<u32>>,
    sc_view: Vec<u32>,
    mutexes: Vec<ModelMutex>,
    n_condvars: usize,
    states: Vec<TState>,
    /// Threads that yielded read fresh (newest) values on their next action.
    fresh: Vec<bool>,
    cur: ThreadId,
    tape: Tape,
    steps: usize,
    log: Vec<String>,
}

impl Inner {
    fn join_view(dst: &mut Vec<u32>, src: &[u32]) {
        if dst.len() < src.len() {
            dst.resize(src.len(), 0);
        }
        for (d, s) in dst.iter_mut().zip(src) {
            *d = (*d).max(*s);
        }
    }

    fn publish_sc(&mut self) {
        let view = self.views[self.cur].clone();
        Self::join_view(&mut self.sc_view, &view);
    }

    fn absorb_sc(&mut self) {
        let sc = self.sc_view.clone();
        Self::join_view(&mut self.views[self.cur], &sc);
    }

    /// Drop stores no live thread can read any more (the newest is always kept).
    fn gc(&mut self) {
        for loc in 0..self.locs.len() {
            let mut min_view = u32::MAX;
            for (t, view) in self.views.iter().enumerate() {
                if self.states[t] != TState::Done {
                    min_view = min_view.min(view[loc]);
                }
            }
            min_view = min_view.min(self.sc_view[loc]);
            let stores = &mut self.locs[loc].stores;
            let last_ts = stores.last().expect("location history never empty").ts;
            stores.retain(|s| s.ts >= min_view || s.ts == last_ts);
        }
    }

    fn fingerprint(&self, threads: &[Box<dyn ModelThread>]) -> u64 {
        let mut h = DefaultHasher::new();
        for loc in &self.locs {
            loc.stores.hash(&mut h);
        }
        self.views.hash(&mut h);
        self.sc_view.hash(&mut h);
        for m in &self.mutexes {
            m.owner.hash(&mut h);
            m.rel_view.hash(&mut h);
        }
        self.states.hash(&mut h);
        self.fresh.hash(&mut h);
        for t in threads {
            t.fp(&mut h);
        }
        h.finish()
    }
}

impl Exec {
    fn new(tape: Tape, nthreads: usize) -> Exec {
        Exec {
            inner: RefCell::new(Inner {
                locs: Vec::new(),
                views: vec![Vec::new(); nthreads],
                sc_view: Vec::new(),
                mutexes: Vec::new(),
                n_condvars: 0,
                states: vec![TState::Ready; nthreads],
                fresh: vec![false; nthreads],
                cur: 0,
                tape,
                steps: 0,
                log: Vec::new(),
            }),
        }
    }

    /// Register an atomic location with an initial value visible to every thread.
    pub fn new_loc(&self, name: &'static str, init: u64) -> Loc {
        let mut inner = self.inner.borrow_mut();
        let loc = inner.locs.len();
        inner.locs.push(LocHist {
            name,
            stores: vec![StoreEvt {
                ts: 0,
                val: init,
                rel_view: None,
            }],
        });
        for view in &mut inner.views {
            view.push(0);
        }
        inner.sc_view.push(0);
        loc
    }

    /// Register a modeled mutex.
    pub fn new_mutex(&self) -> MutexId {
        let mut inner = self.inner.borrow_mut();
        let nlocs = inner.locs.len();
        inner.mutexes.push(ModelMutex {
            owner: None,
            rel_view: vec![0; nlocs],
        });
        inner.mutexes.len() - 1
    }

    /// Register a modeled condition variable.
    pub fn new_condvar(&self) -> CvId {
        let mut inner = self.inner.borrow_mut();
        inner.n_condvars += 1;
        inner.n_condvars - 1
    }

    /// Atomic load at `ord`, branching the search over every readable store.
    pub fn load(&self, loc: Loc, ord: Ordering) -> u64 {
        let mut inner = self.inner.borrow_mut();
        debug_assert!(!matches!(ord, Ordering::Release | Ordering::AcqRel));
        if ord == Ordering::SeqCst {
            inner.absorb_sc();
        }
        let cur = inner.cur;
        let min_ts = inner.views[cur][loc];
        let fresh = inner.fresh[cur];
        let cands: Vec<usize> = inner.locs[loc]
            .stores
            .iter()
            .enumerate()
            .filter(|(_, s)| s.ts >= min_ts)
            .map(|(i, _)| i)
            .collect();
        debug_assert!(!cands.is_empty(), "view ahead of history");
        let idx = if fresh {
            *cands.last().expect("nonempty")
        } else {
            cands[inner.tape.choose(cands.len())]
        };
        let evt = inner.locs[loc].stores[idx].clone();
        inner.views[cur][loc] = inner.views[cur][loc].max(evt.ts);
        if matches!(ord, Ordering::Acquire | Ordering::SeqCst) {
            if let Some(rv) = &evt.rel_view {
                let rv = rv.clone();
                Inner::join_view(&mut inner.views[cur], &rv);
            }
        }
        evt.val
    }

    /// Atomic store at `ord`, appended at the tail of modification order.
    pub fn store(&self, loc: Loc, val: u64, ord: Ordering) {
        let mut inner = self.inner.borrow_mut();
        debug_assert!(!matches!(ord, Ordering::Acquire | Ordering::AcqRel));
        if ord == Ordering::SeqCst {
            inner.absorb_sc();
        }
        let ts = inner.locs[loc].stores.last().expect("nonempty").ts + 1;
        let cur = inner.cur;
        inner.views[cur][loc] = ts;
        let rel_view =
            matches!(ord, Ordering::Release | Ordering::SeqCst).then(|| inner.views[cur].clone());
        inner.locs[loc].stores.push(StoreEvt { ts, val, rel_view });
        if ord == Ordering::SeqCst {
            inner.publish_sc();
        }
    }

    /// A `SeqCst` fence: absorb the SC view, then publish into it.
    pub fn fence_seq_cst(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.absorb_sc();
        inner.publish_sc();
    }

    /// Try to take a modeled mutex; on success joins the last unlocker's view.
    /// On failure the caller should return [`Step::Yield`] without advancing.
    pub fn try_lock(&self, m: MutexId) -> bool {
        let mut inner = self.inner.borrow_mut();
        if inner.mutexes[m].owner.is_some() {
            return false;
        }
        let cur = inner.cur;
        inner.mutexes[m].owner = Some(cur);
        let rv = inner.mutexes[m].rel_view.clone();
        Inner::join_view(&mut inner.views[cur], &rv);
        true
    }

    /// Release a modeled mutex, publishing the holder's view to the next locker.
    pub fn unlock(&self, m: MutexId) {
        let mut inner = self.inner.borrow_mut();
        let cur = inner.cur;
        debug_assert_eq!(inner.mutexes[m].owner, Some(cur), "unlock by non-owner");
        let view = inner.views[cur].clone();
        Inner::join_view(&mut inner.mutexes[m].rel_view, &view);
        inner.mutexes[m].owner = None;
    }

    /// Wake one thread parked on `cv`, if any (no-op otherwise, like
    /// `Condvar::notify_one`).  The woken thread re-locks its mutex on its next step.
    pub fn notify_one(&self, cv: CvId) {
        let mut inner = self.inner.borrow_mut();
        let parked: Vec<ThreadId> = (0..inner.states.len())
            .filter(|&t| inner.states[t] == TState::Parked(cv))
            .collect();
        if parked.is_empty() {
            return;
        }
        let pick = parked[inner.tape.choose(parked.len())];
        inner.states[pick] = TState::Ready;
    }

    /// Append a line to the execution's action log (shown on violation).
    pub fn log(&self, msg: String) {
        self.inner.borrow_mut().log.push(msg);
    }

    /// Name of a location (for scenario-side assertion messages).
    pub fn loc_name(&self, loc: Loc) -> &'static str {
        self.inner.borrow().locs[loc].name
    }
}

/// What a model thread did in one action.
pub enum Step {
    /// Performed a visible action; other yielded threads are re-armed.
    Ran,
    /// Could not make progress (spin retry or lock blocked); the thread is not
    /// rescheduled until another thread progresses, and its next action reads fresh
    /// values (the eventual-visibility assumption).
    Yield,
    /// Parked on a condition variable after releasing its mutex; runnable again only
    /// after a matching [`Exec::notify_one`].
    Park(CvId),
    /// The thread's protocol role is complete.
    Done,
    /// A scenario assertion failed: the checker stops with this violation.
    Fail(String),
}

/// One protocol role (producer, consumer, sender, receiver) as an explicit state
/// machine.  Each [`ModelThread::step`] call performs one scheduling-visible action —
/// typically one `mpsim::proto` step function over instrumented cells.
pub trait ModelThread {
    /// Perform the next action.
    fn step(&mut self, exec: &Exec) -> Step;
    /// Hash the thread's program counter and locals into the state fingerprint.
    fn fp(&self, h: &mut DefaultHasher);
}

/// A counterexample: the failure plus the tail of the action log that led to it.
#[derive(Debug)]
pub struct Violation {
    /// What went wrong (assertion text, or deadlock/livelock description).
    pub message: String,
    /// The logged actions of the failing execution.
    pub trace: Vec<String>,
}

/// The result of exhausting (or abandoning) an exploration.
#[derive(Debug)]
pub struct Report {
    /// Executions actually run (pruned executions count).
    pub executions: u64,
    /// Distinct states fingerprinted.
    pub states: u64,
    /// `true` when every interleaving/read choice was covered (possibly modulo
    /// fingerprint pruning), `false` when an execution or step budget was hit.
    pub complete: bool,
    /// The first counterexample found, if any.
    pub violation: Option<Violation>,
}

impl Report {
    /// Panic unless the exploration completed with no violation.
    pub fn assert_clean(&self, what: &str) {
        assert!(
            self.complete,
            "{what}: exploration did not complete ({} executions)",
            self.executions
        );
        if let Some(v) = &self.violation {
            panic!(
                "{what}: violation found after {} executions: {}\ntrace:\n  {}",
                self.executions,
                v.message,
                v.trace.join("\n  ")
            );
        }
    }

    /// Panic unless a violation whose message contains `needle` was found.
    pub fn assert_caught(&self, what: &str, needle: &str) {
        let v = self
            .violation
            .as_ref()
            .unwrap_or_else(|| panic!("{what}: expected a violation, exploration was clean"));
        assert!(
            v.message.contains(needle),
            "{what}: violation {:?} does not mention {needle:?}",
            v.message
        );
    }
}

/// Exhaustively explore every interleaving and read choice of the scenario built by
/// `build`.  The builder must be deterministic: it is re-invoked for every execution
/// and must register locations/mutexes/condvars in the same order each time.
pub fn explore<F>(build: F) -> Report
where
    F: Fn(&std::rc::Rc<Exec>) -> Vec<Box<dyn ModelThread>>,
{
    let mut tape = Tape {
        decisions: Vec::new(),
        pos: 0,
        boundary: 0,
    };
    let mut visited: HashSet<u64> = HashSet::new();
    let mut executions: u64 = 0;
    loop {
        executions += 1;
        // Thread count: probe once on the first execution.
        let exec = std::rc::Rc::new(Exec::new(
            Tape {
                decisions: std::mem::take(&mut tape.decisions),
                pos: 0,
                boundary: tape.boundary,
            },
            0,
        ));
        let mut threads = build(&exec);
        {
            let mut inner = exec.inner.borrow_mut();
            let n = threads.len();
            let nlocs = inner.locs.len();
            inner.views = vec![vec![0; nlocs]; n];
            inner.states = vec![TState::Ready; n];
            inner.fresh = vec![false; n];
        }
        let violation = run_one(&exec, &mut threads, &mut visited);
        drop(threads);
        let inner = std::rc::Rc::try_unwrap(exec)
            .ok()
            .expect("threads must not outlive the execution")
            .inner
            .into_inner();
        tape = inner.tape;
        if let Some(v) = violation {
            return Report {
                executions,
                states: visited.len() as u64,
                complete: false,
                violation: Some(v),
            };
        }
        if executions >= MAX_EXECUTIONS {
            return Report {
                executions,
                states: visited.len() as u64,
                complete: false,
                violation: None,
            };
        }
        if !tape.backtrack() {
            return Report {
                executions,
                states: visited.len() as u64,
                complete: true,
                violation: None,
            };
        }
    }
}

fn run_one(
    exec: &std::rc::Rc<Exec>,
    threads: &mut [Box<dyn ModelThread>],
    visited: &mut HashSet<u64>,
) -> Option<Violation> {
    loop {
        let (ready, done_count, parked, past_boundary, fp) = {
            let inner = exec.inner.borrow();
            let ready: Vec<ThreadId> = (0..threads.len())
                .filter(|&t| inner.states[t] == TState::Ready)
                .collect();
            let done = inner.states.iter().filter(|s| **s == TState::Done).count();
            let parked: Vec<ThreadId> = (0..threads.len())
                .filter(|&t| matches!(inner.states[t], TState::Parked(_)))
                .collect();
            let past = inner.tape.pos > inner.tape.boundary;
            let fp = inner.fingerprint(threads);
            (ready, done, parked, past, fp)
        };
        if done_count == threads.len() {
            return None;
        }
        if ready.is_empty() {
            let yielded: Vec<ThreadId> = {
                let inner = exec.inner.borrow();
                (0..threads.len())
                    .filter(|&t| inner.states[t] == TState::Yielded)
                    .collect()
            };
            if !yielded.is_empty() {
                // Re-arm spinners: nothing else can move first.
                let mut inner = exec.inner.borrow_mut();
                for t in yielded {
                    inner.states[t] = TState::Ready;
                }
                continue;
            }
            let (trace, names) = {
                let inner = exec.inner.borrow();
                (inner.log.clone(), format!("{parked:?}"))
            };
            return Some(Violation {
                message: format!(
                    "deadlock: threads {names} are parked forever and no thread can run \
                     (lost wakeup)"
                ),
                trace,
            });
        }
        // Fingerprint pruning — only past the replayed prefix (see module docs).
        if past_boundary && !visited.insert(fp) {
            return None;
        }
        {
            let mut inner = exec.inner.borrow_mut();
            inner.steps += 1;
            if inner.steps > MAX_STEPS {
                return Some(Violation {
                    message: "livelock: per-execution step budget exceeded".to_string(),
                    trace: inner.log.clone(),
                });
            }
        }
        let tid = {
            let mut inner = exec.inner.borrow_mut();
            let pick = inner.tape.choose(ready.len());
            let tid = ready[pick];
            inner.cur = tid;
            tid
        };
        let step = threads[tid].step(exec);
        let mut inner = exec.inner.borrow_mut();
        match step {
            Step::Ran => {
                inner.fresh[tid] = false;
                rearm_others(&mut inner, tid);
            }
            Step::Yield => {
                inner.states[tid] = TState::Yielded;
                inner.fresh[tid] = true;
            }
            Step::Park(cv) => {
                // `Ready` again only via notify_one; `fresh` so the post-wake rescan
                // observes what the waker published.
                inner.states[tid] = TState::Parked(cv);
                inner.fresh[tid] = true;
                rearm_others(&mut inner, tid);
            }
            Step::Done => {
                inner.states[tid] = TState::Done;
                rearm_others(&mut inner, tid);
            }
            Step::Fail(message) => {
                return Some(Violation {
                    message,
                    trace: inner.log.clone(),
                });
            }
        }
        inner.gc();
    }
}

fn rearm_others(inner: &mut Inner, actor: ThreadId) {
    for t in 0..inner.states.len() {
        if t != actor && inner.states[t] == TState::Yielded {
            inner.states[t] = TState::Ready;
        }
    }
}
