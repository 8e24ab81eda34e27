//! Protocol suite: the faithful model of the worker pool's batch hand-off
//! must survive the whole (preemption-bounded) schedule space, every
//! seeded-bug variant must be caught, and the interleaving count is
//! snapshotted so a search-space regression (a scheduler change that
//! silently stops exploring) is visible in the diff.

use pnet_modelcheck::models::{check_pool, PoolBug};

#[test]
fn correct_pool_hand_off_verifies_exhaustively() {
    let stats = check_pool(PoolBug::None).expect("the pool's batch hand-off must verify");
    assert!(
        stats.executions > 100,
        "search space collapsed: only {} interleavings",
        stats.executions
    );
    // Exact snapshot: 1 caller (job write, bump, wait, 2 result reads,
    // retire) + 2 claiming workers under preemption bound 2.
    assert_eq!((stats.executions, stats.max_depth), (182, 18));
}

#[test]
fn relaxed_batch_bump_hands_a_worker_a_torn_job() {
    let violation =
        check_pool(PoolBug::RelaxedBump).expect_err("Relaxed bump must lose the release edge");
    assert!(
        violation.message.contains("unsynchronized read"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn waiting_on_claimed_indices_lets_the_caller_outrun_a_worker() {
    let violation =
        check_pool(PoolBug::WaitOnClaimed).expect_err("a claimed index is not a completed one");
    // Either side of the use-after-free is an unordered read: the caller's of
    // a result cell a worker is writing, or a worker's of the retired job.
    assert!(
        violation.message.contains("unsynchronized read"),
        "unexpected violation: {violation}"
    );
}
