//! Protocol suite: the faithful models of `Published::{publish,pin}` and
//! the worker pool's batch hand-off must survive the whole
//! (preemption-bounded) schedule space, every seeded-bug variant must be
//! caught, and the interleaving counts are snapshotted so a search-space
//! regression (a scheduler change that silently stops exploring) is visible
//! in the diff.

use pnet_modelcheck::models::{check_pool, check_published, PoolBug, PubBug};

#[test]
fn correct_publish_pin_protocol_verifies_exhaustively() {
    let stats = check_published(PubBug::None).expect("hardened publish/pin protocol must verify");
    assert!(
        stats.executions > 100,
        "search space collapsed: only {} interleavings",
        stats.executions
    );
    // Exact snapshot: 2 publishers (lock, load, slot write, CAS, unlock)
    // + 1 pinning reader under preemption bound 2.
    assert_eq!((stats.executions, stats.max_depth), (158, 13));
}

#[test]
fn relaxed_publication_store_is_caught() {
    let violation = check_published(PubBug::RelaxedPublish)
        .expect_err("Relaxed publication must lose the release edge");
    assert!(
        violation.message.contains("unsynchronized read"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn relaxed_pin_load_is_caught() {
    let violation =
        check_published(PubBug::RelaxedPin).expect_err("Relaxed pin must lose the acquire edge");
    assert!(
        violation.message.contains("unsynchronized read"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn racing_publishers_without_the_writer_lock_are_caught() {
    let violation = check_published(PubBug::NoWriterLock)
        .expect_err("unlocked publishers must race the frontier");
    assert!(
        violation.message.contains("race") || violation.message.contains("lost publication"),
        "unexpected violation: {violation}"
    );
}

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
