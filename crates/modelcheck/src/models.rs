//! Hand-written model of the workspace's one lock-free protocol, with
//! seeded-bug variants the checker must catch.
//!
//! [`check_pool`] — the worker pool's batch hand-off from
//! `vendor/rayon/src/lib.rs`: the caller writes the job cell and publishes
//! it with a Release bump of the batch counter, two workers claim indices
//! from a cursor and write per-index result cells, each worker's Release
//! bump of the completion count ends its use of the job, and the caller
//! reads the results and retires the job cell only after an Acquire load
//! saw both. Seeded bugs: Relaxed publication (a worker reads a torn job)
//! and waiting on indices claimed instead of workers finished (the caller
//! reads a result, or retires the closure, under a running worker).
//!
//! The model intentionally stays op-for-op close to the real code so a
//! future protocol change can be mirrored here and re-verified before it
//! lands.

use crate::{explore, Ctx, MAtomic, MCell, Opts, Ordering, Stats, Violation};

/// Seeded-bug selector for the worker-pool hand-off model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolBug {
    /// Faithful model of `broadcast` / `worker` / `Batch::drop` — must verify.
    None,
    /// The batch counter is bumped `Relaxed`: a worker that sees the new
    /// batch has no release edge to the job cell's write → torn job.
    RelaxedBump,
    /// The caller waits until every index is *claimed* rather than until
    /// every worker has *finished*: it reads a result cell, or retires the
    /// job, while a worker is still inside the closure — the use-after-free
    /// the lifetime erasure would otherwise allow.
    WaitOnClaimed,
}

/// Indices of the modeled batch; one per worker is enough to make a claimed
/// index and a completed index different things.
const POOL_ITEMS: usize = 2;
const POOL_WORKERS: usize = 2;

/// State of the hand-off model. `job` is the `UnsafeCell` holding the erased
/// closure (0 = retired, 1 = published), `finished` mirrors `pending`
/// counting up instead of down, and `cursor` is the closure's captured
/// claim counter.
pub struct PoolModel {
    job: MCell,
    epoch: MAtomic,
    cursor: MAtomic,
    results: Vec<MCell>,
    finished: MAtomic,
}

/// Model-check one pool batch with a caller and two workers under the given
/// seeded bug. A wait is modeled as one load: a thread that does not see
/// what it waits for stops there, and the schedule in which the same load
/// comes late enough to succeed is explored as well.
pub fn check_pool(bug: PoolBug) -> Result<Stats, Violation> {
    let bump_ord = if bug == PoolBug::RelaxedBump {
        Ordering::Relaxed
    } else {
        Ordering::Release
    };
    let caller = move |ctx: &Ctx<'_>, m: &PoolModel| {
        m.job.write(ctx, 1);
        m.epoch.fetch_add(ctx, 1, bump_ord);
        let done = if bug == PoolBug::WaitOnClaimed {
            m.cursor.load(ctx, Ordering::Acquire) >= POOL_ITEMS
        } else {
            m.finished.load(ctx, Ordering::Acquire) == POOL_WORKERS
        };
        if !done {
            return;
        }
        for (i, cell) in m.results.iter().enumerate() {
            ctx.check(
                cell.read(ctx) == i + 1,
                "caller read a result before its worker wrote it",
            );
        }
        // `broadcast` returns: the borrowed closure dies with its frame.
        m.job.write(ctx, 0);
    };
    let worker = |ctx: &Ctx<'_>, m: &PoolModel| {
        if m.epoch.load(ctx, Ordering::Acquire) == 0 {
            return;
        }
        loop {
            let i = m.cursor.fetch_add(ctx, 1, Ordering::Relaxed);
            if i >= POOL_ITEMS {
                break;
            }
            // Every index runs through the borrowed closure.
            ctx.check(m.job.read(ctx) == 1, "worker ran a retired job");
            m.results[i].write(ctx, i + 1);
        }
        m.finished.fetch_add(ctx, 1, Ordering::Release);
    };
    explore(
        &Opts::default(),
        &|| PoolModel {
            job: MCell::new(0),
            epoch: MAtomic::new(0),
            cursor: MAtomic::new(0),
            results: (0..POOL_ITEMS).map(|_| MCell::new(0)).collect(),
            finished: MAtomic::new(0),
        },
        &[&caller, &worker, &worker],
        &|m| {
            let retired = m.epoch.peek() == 1 && m.job.peek() == 0;
            match m.results.iter().position(|c| c.peek() == 0) {
                Some(i) if retired => Err(format!("job retired with index {i} never run")),
                _ => Ok(()),
            }
        },
    )
}
