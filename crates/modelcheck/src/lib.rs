//! Mini-loom: a dependency-free, exhaustive-interleaving model checker for
//! the workspace's one lock-free protocol.
//!
//! That protocol (the worker pool's batch hand-off in `vendor/rayon`) is
//! small enough to model op-by-op, so instead of stress tests we *enumerate
//! schedules*: every modeled operation is a scheduling point, a
//! deterministic scheduler replays one interleaving per execution, and a DFS
//! over the per-step choice points covers the whole (preemption-bounded)
//! schedule space. Each execution also maintains happens-before vector
//! clocks, so the checker reports not just assertion failures but *races*: a
//! non-atomic read/write that is not ordered by an acquire/release edge.
//!
//! Modeled primitives:
//! * [`MAtomic`] — an atomic `usize` carrying a release clock. A
//!   Release-class store publishes the writer's clock; an Acquire-class
//!   load joins it; a Relaxed RMW preserves it (the release-sequence rule)
//!   but publishes nothing of its own.
//! * [`MCell`] — a non-atomic cell with full read/write race detection.
//!
//! Scheduling: threads are real OS threads taking turns under a token
//! (one runnable thread at a time); a turn runs from one modeled op to the
//! next. The DFS backtracks over the per-step runnable sets, bounded by
//! [`Opts::preemptions`] (CHESS-style: most concurrency bugs need very few
//! preemptions, and the bound keeps the space polynomial). Within the
//! bound the search is exhaustive and deterministic, so execution counts
//! are exact and snapshot-testable. `SeqCst` is modeled as `AcqRel`
//! (conservative for this protocol, which never relies on a total store
//! order). See DESIGN.md §"Mini-loom".

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

pub mod models;

/// Memory orderings for modeled atomics (mirrors `std::sync::atomic`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ordering {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl Ordering {
    fn acquires(self) -> bool {
        matches!(
            self,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        )
    }
    fn releases(self) -> bool {
        matches!(
            self,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        )
    }
}

// ---- vector clocks --------------------------------------------------------

type Clock = Vec<u64>;

/// `a` happens-before-or-equal `b`. The empty clock (initialization, which
/// precedes thread spawn) is ≤ everything.
fn clock_le(a: &Clock, b: &Clock) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

fn clock_join(into: &mut Clock, from: &Clock) {
    for (x, y) in into.iter_mut().zip(from.iter()) {
        *x = (*x).max(*y);
    }
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A thread that unwinds on abort while touching a primitive poisons the
    // std mutex; the model state underneath is still consistent (ops are
    // token-serialized), so recover rather than cascade.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Panic payload used to unwind model threads when an execution aborts.
struct Abort;

fn describe_panic(p: Box<dyn Any + Send>) -> Option<String> {
    if p.downcast_ref::<Abort>().is_some() {
        return None;
    }
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    Some(format!("model thread panicked: {msg}"))
}

// ---- scheduler ------------------------------------------------------------

/// One scheduling decision: the runnable set offered (previously-running
/// thread first, then the rest in ascending id order) and the index taken.
#[derive(Clone)]
struct Step {
    runnable: Vec<usize>,
    chosen: usize,
}

impl Step {
    fn thread(&self) -> usize {
        self.runnable[self.chosen]
    }
}

struct SchedInner {
    /// Thread currently holding the run token, if any.
    current: Option<usize>,
    /// Threads parked at a scheduling point, eligible to run.
    waiting: Vec<bool>,
    finished: Vec<bool>,
    abort: bool,
    violation: Option<String>,
}

struct Sched {
    inner: Mutex<SchedInner>,
    cv: Condvar,
}

impl Sched {
    fn new(n: usize) -> Sched {
        Sched {
            inner: Mutex::new(SchedInner {
                current: None,
                waiting: vec![false; n],
                finished: vec![false; n],
                abort: false,
                violation: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedInner> {
        lock_recover(&self.inner)
    }

    /// Park at a scheduling point; returns once this thread is granted the
    /// next turn. Unwinds if the execution aborted.
    fn turn(&self, me: usize) {
        let mut g = self.lock();
        if g.current == Some(me) {
            g.current = None;
        }
        g.waiting[me] = true;
        self.cv.notify_all();
        loop {
            if g.abort {
                g.waiting[me] = false;
                drop(g);
                std::panic::panic_any(Abort);
            }
            if g.current == Some(me) {
                break;
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        g.waiting[me] = false;
    }

    /// Record a violation, abort the execution, and unwind the caller.
    fn raise(&self, msg: String) -> ! {
        let mut g = self.lock();
        if g.violation.is_none() {
            g.violation = Some(msg);
        }
        g.abort = true;
        self.cv.notify_all();
        drop(g);
        std::panic::panic_any(Abort)
    }

    fn done(&self, me: usize, real_panic: Option<String>) {
        let mut g = self.lock();
        g.finished[me] = true;
        g.waiting[me] = false;
        if g.current == Some(me) {
            g.current = None;
        }
        if let Some(msg) = real_panic {
            if g.violation.is_none() {
                g.violation = Some(msg);
            }
            g.abort = true;
        }
        self.cv.notify_all();
    }

    fn take_violation(&self) -> Option<String> {
        self.lock().violation.take()
    }

    /// Drive one execution: wait for quiescence, pick the next thread per
    /// `prefix` (then first-choice defaults), repeat until all threads
    /// finish or the execution aborts. Returns the decision trace.
    fn drive(&self, n: usize, prefix: &[Step], max_steps: usize) -> Vec<Step> {
        let mut trace: Vec<Step> = Vec::new();
        let mut g = self.lock();
        loop {
            // Quiescence: no token holder and every live thread parked.
            loop {
                if g.abort {
                    break;
                }
                let parked = (0..n).all(|i| g.waiting[i] || g.finished[i]);
                if g.current.is_none() && parked {
                    break;
                }
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            if g.abort {
                // Unwind stragglers and wait for them to finish.
                while !(0..n).all(|i| g.finished[i]) {
                    self.cv.notify_all();
                    g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
                return trace;
            }
            if (0..n).all(|i| g.finished[i]) {
                return trace;
            }
            // Every live thread is parked at a modeled op, so this is never
            // empty: no modeled primitive blocks.
            let mut runnable: Vec<usize> = (0..n).filter(|&i| g.waiting[i]).collect();
            // Previously-running thread first: index 0 is the
            // non-preempting continuation, so default (and bounded) search
            // prefers running a thread to completion.
            if let Some(prev) = trace.last().map(Step::thread) {
                if let Some(pos) = runnable.iter().position(|&t| t == prev) {
                    runnable.remove(pos);
                    runnable.insert(0, prev);
                }
            }
            let k = trace.len();
            let chosen = if k < prefix.len() {
                // Replay is deterministic, so the recorded choice is always
                // in range; clamp defensively anyway.
                prefix[k].chosen.min(runnable.len() - 1)
            } else {
                0
            };
            let t = runnable[chosen];
            trace.push(Step { runnable, chosen });
            if trace.len() > max_steps {
                if g.violation.is_none() {
                    g.violation = Some(format!(
                        "step budget exceeded: execution ran past {max_steps} modeled ops"
                    ));
                }
                g.abort = true;
                self.cv.notify_all();
                continue;
            }
            g.current = Some(t);
            self.cv.notify_all();
        }
    }
}

// ---- per-thread context ---------------------------------------------------

/// Per-thread handle passed to model closures: identifies the thread to
/// the scheduler and carries its vector clock.
pub struct Ctx<'s> {
    sched: &'s Sched,
    tid: usize,
    clock: RefCell<Clock>,
}

impl Ctx<'_> {
    fn turn(&self) {
        self.sched.turn(self.tid);
    }

    fn bump(&self) {
        self.clock.borrow_mut()[self.tid] += 1;
    }

    fn join_clock(&self, other: &Clock) {
        clock_join(&mut self.clock.borrow_mut(), other);
    }

    fn clock_snapshot(&self) -> Clock {
        self.clock.borrow().clone()
    }

    /// Model assertion: a false condition aborts the execution and reports
    /// the message as the violation.
    pub fn check(&self, cond: bool, msg: &str) {
        if !cond {
            self.sched.raise(format!("model assertion failed: {msg}"));
        }
    }
}

// ---- modeled primitives ---------------------------------------------------

struct AtomicState {
    value: usize,
    /// Clock published by the last Release-class store, threaded through
    /// RMWs (release sequence); `None` until the first one.
    release: Option<Clock>,
}

/// Modeled atomic `usize` recording acquire/release edges.
pub struct MAtomic {
    st: Mutex<AtomicState>,
}

impl MAtomic {
    pub fn new(v: usize) -> MAtomic {
        MAtomic {
            st: Mutex::new(AtomicState {
                value: v,
                release: None,
            }),
        }
    }

    pub fn load(&self, ctx: &Ctx, ord: Ordering) -> usize {
        ctx.turn();
        ctx.bump();
        let st = lock_recover(&self.st);
        if ord.acquires() {
            if let Some(c) = &st.release {
                ctx.join_clock(c);
            }
        }
        st.value
    }

    pub fn fetch_add(&self, ctx: &Ctx, v: usize, ord: Ordering) -> usize {
        ctx.turn();
        ctx.bump();
        let mut st = lock_recover(&self.st);
        let old = st.value;
        st.value = old + v;
        Self::rmw_clock(ctx, &mut st, ord);
        old
    }

    fn rmw_clock(ctx: &Ctx, st: &mut AtomicState, ord: Ordering) {
        if ord.acquires() {
            if let Some(c) = &st.release {
                ctx.join_clock(c);
            }
        }
        if ord.releases() {
            // Join rather than replace: an RMW extends the existing
            // release sequence instead of starting a fresh one.
            let mut c = st.release.take().unwrap_or_default();
            if c.len() < ctx.clock.borrow().len() {
                c.resize(ctx.clock.borrow().len(), 0);
            }
            clock_join(&mut c, &ctx.clock.borrow());
            st.release = Some(c);
        }
        // Relaxed RMW: the release clock is left untouched — the chain
        // survives, but this thread publishes nothing new.
    }

    /// Final-state read for `finalize` closures (no scheduling, no clocks).
    pub fn peek(&self) -> usize {
        lock_recover(&self.st).value
    }
}

struct CellState {
    value: usize,
    write: Clock,
    /// Reads since the last write (cleared by each write).
    reads: Vec<Clock>,
}

/// Modeled *non-atomic* cell: every access is race-checked against the
/// vector clocks. This is the "shared data guarded by a publication
/// atomic" in the protocols under test.
pub struct MCell {
    st: Mutex<CellState>,
}

impl MCell {
    pub fn new(v: usize) -> MCell {
        MCell {
            st: Mutex::new(CellState {
                value: v,
                write: Clock::new(),
                reads: Vec::new(),
            }),
        }
    }

    pub fn read(&self, ctx: &Ctx) -> usize {
        ctx.turn();
        ctx.bump();
        let mut st = lock_recover(&self.st);
        let me = ctx.clock_snapshot();
        if !clock_le(&st.write, &me) {
            drop(st);
            ctx.sched.raise(
                "unsynchronized read of a non-atomic cell: the last write does not \
                 happen-before this read (torn/stale read)"
                    .to_string(),
            );
        }
        st.reads.push(me);
        st.value
    }

    pub fn write(&self, ctx: &Ctx, v: usize) {
        ctx.turn();
        ctx.bump();
        let mut st = lock_recover(&self.st);
        let me = ctx.clock_snapshot();
        if !clock_le(&st.write, &me) {
            drop(st);
            ctx.sched
                .raise("write-write race on a non-atomic cell".to_string());
        }
        if st.reads.iter().any(|r| !clock_le(r, &me)) {
            drop(st);
            ctx.sched
                .raise("read-write race on a non-atomic cell".to_string());
        }
        st.value = v;
        st.write = me;
        st.reads.clear();
    }

    pub fn peek(&self) -> usize {
        lock_recover(&self.st).value
    }
}

// ---- exploration ----------------------------------------------------------

/// Search configuration.
pub struct Opts {
    /// Maximum preemptions per schedule (`None` = unbounded, truly
    /// exhaustive). Default 2, the classic CHESS bound: empirically most
    /// concurrency bugs need at most two, and the bound keeps the schedule
    /// count polynomial in ops-per-thread.
    pub preemptions: Option<usize>,
    /// Per-execution op budget; exceeding it is a violation (a looping
    /// model, e.g. a spinlock without a scheduler yield).
    pub max_steps: usize,
    /// Total executions budget; exceeding it is a violation (the model is
    /// too big to enumerate — shrink it or lower the preemption bound).
    pub max_executions: u64,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            preemptions: Some(2),
            max_steps: 10_000,
            max_executions: 1_000_000,
        }
    }
}

/// Exhaustive-search result: exact, deterministic counts (snapshot these
/// in tests so search-space regressions are visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Complete interleavings explored.
    pub executions: u64,
    /// Longest decision trace seen (modeled ops across all threads).
    pub max_depth: usize,
}

/// A counterexample: the schedule search found an execution that raised a
/// violation (assertion failure, race, or budget overrun).
#[derive(Debug)]
pub struct Violation {
    pub message: String,
    /// Executions completed before (and including) the failing one.
    pub executions: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (execution #{})", self.message, self.executions)
    }
}

/// A modeled thread body: runs against the shared state under the
/// scheduler's turn token.
pub type ThreadFn<'a, S> = &'a (dyn Fn(&Ctx, &S) + Sync);

/// Enumerate every schedule (up to `opts.preemptions`) of `threads` over
/// fresh state from `init`, race-checking all modeled ops and running
/// `finalize` on the end state of each interleaving.
pub fn explore<S: Sync>(
    opts: &Opts,
    init: &dyn Fn() -> S,
    threads: &[ThreadFn<'_, S>],
    finalize: &dyn Fn(&S) -> Result<(), String>,
) -> Result<Stats, Violation> {
    let n = threads.len();
    let mut prefix: Vec<Step> = Vec::new();
    let mut executions: u64 = 0;
    let mut max_depth = 0;
    loop {
        let state = init();
        let sched = Sched::new(n);
        let trace = std::thread::scope(|s| {
            for (tid, body) in threads.iter().enumerate() {
                let state = &state;
                let sched = &sched;
                s.spawn(move || {
                    let ctx = Ctx {
                        sched,
                        tid,
                        clock: RefCell::new(vec![0; n]),
                    };
                    let result = catch_unwind(AssertUnwindSafe(|| body(&ctx, state)));
                    let real_panic = match result {
                        Ok(()) => None,
                        Err(payload) => describe_panic(payload),
                    };
                    sched.done(tid, real_panic);
                });
            }
            sched.drive(n, &prefix, opts.max_steps)
        });
        executions += 1;
        max_depth = max_depth.max(trace.len());
        let violation = sched.take_violation().or_else(|| finalize(&state).err());
        if let Some(message) = violation {
            return Err(Violation {
                message,
                executions,
            });
        }
        if executions >= opts.max_executions {
            return Err(Violation {
                message: format!(
                    "search budget exceeded: more than {} interleavings",
                    opts.max_executions
                ),
                executions,
            });
        }
        prefix = if let Some(p) = next_prefix(&trace, opts.preemptions) {
            p
        } else {
            return Ok(Stats {
                executions,
                max_depth,
            });
        };
    }
}

/// Backtrack: find the rightmost step with an untried alternative whose
/// choice keeps the schedule within the preemption bound, and return the
/// trace up to it with that alternative taken. `None` = space exhausted.
fn next_prefix(trace: &[Step], bound: Option<usize>) -> Option<Vec<Step>> {
    // preempts[k] = preemptions among steps 0..=k. Step k preempts iff the
    // previously-running thread is still runnable (slot 0 by construction)
    // and a different slot was chosen.
    let mut preempts = vec![0usize; trace.len()];
    for k in 1..trace.len() {
        let prev = trace[k - 1].thread();
        let is_preempt = trace[k].runnable.first() == Some(&prev) && trace[k].chosen != 0;
        preempts[k] = preempts[k - 1] + usize::from(is_preempt);
    }
    for k in (0..trace.len()).rev() {
        let step = &trace[k];
        if step.chosen + 1 >= step.runnable.len() {
            continue;
        }
        let base = if k == 0 { 0 } else { preempts[k - 1] };
        // Any alternative is at index ≥ 1, so it preempts iff the previous
        // thread occupies slot 0 of this step's runnable set.
        let prev_runnable = k > 0 && step.runnable.first() == Some(&trace[k - 1].thread());
        let cost = base + usize::from(prev_runnable);
        if bound.is_some_and(|b| cost > b) {
            continue;
        }
        let mut prefix = trace[..k].to_vec();
        prefix.push(Step {
            runnable: step.runnable.clone(),
            chosen: step.chosen + 1,
        });
        return Some(prefix);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_counters() -> (MAtomic, MAtomic) {
        (MAtomic::new(0), MAtomic::new(0))
    }

    /// Two threads, two independent ops each: the unbounded schedule count
    /// is the binomial interleaving count C(4,2) = 6 — pins the DFS
    /// enumerator against over- or under-counting.
    #[test]
    fn unbounded_search_counts_binomial_interleavings() {
        let opts = Opts {
            preemptions: None,
            ..Opts::default()
        };
        let body = |ctx: &Ctx<'_>, s: &(MAtomic, MAtomic)| {
            s.0.fetch_add(ctx, 1, Ordering::Relaxed);
            s.1.fetch_add(ctx, 1, Ordering::Relaxed);
        };
        let stats = explore(&opts, &two_counters, &[&body, &body], &|s| {
            if s.0.peek() == 2 && s.1.peek() == 2 {
                Ok(())
            } else {
                Err("lost update".to_string())
            }
        })
        .expect("race-free model must verify");
        assert_eq!(
            stats,
            Stats {
                executions: 6,
                max_depth: 4
            }
        );
    }

    /// Same model under preemption bound 0: only the two run-to-completion
    /// schedules survive.
    #[test]
    fn zero_preemption_bound_serializes_threads() {
        let opts = Opts {
            preemptions: Some(0),
            ..Opts::default()
        };
        let body = |ctx: &Ctx<'_>, s: &(MAtomic, MAtomic)| {
            s.0.fetch_add(ctx, 1, Ordering::Relaxed);
            s.1.fetch_add(ctx, 1, Ordering::Relaxed);
        };
        let stats = explore(&opts, &two_counters, &[&body, &body], &|_| Ok(()))
            .expect("race-free model must verify");
        assert_eq!(stats.executions, 2);
    }

    /// An unguarded non-atomic write/write pair must be reported as a race.
    #[test]
    fn cell_write_race_is_detected() {
        let body = |ctx: &Ctx<'_>, cell: &MCell| {
            cell.write(ctx, 1);
        };
        let violation = explore(
            &Opts::default(),
            &|| MCell::new(0),
            &[&body, &body],
            &|_| Ok(()),
        )
        .expect_err("two unsynchronized writers must race");
        assert!(
            violation.message.contains("write-write race"),
            "{violation}"
        );
    }
}
