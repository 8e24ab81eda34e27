//! Solver memo: `(topology fp, commodity fp, query tag) → solution`.
//!
//! The cache key is built entirely from golden fingerprints, so a hit is a
//! claim of bitwise identity with the cold solve it replaces — and the
//! insert-race path asserts exactly that: when two threads solve the same
//! key concurrently, the first insert wins and the loser's result must
//! carry the identical solution fingerprint (the solvers' determinism
//! contract, enforced at the cache boundary).

use crate::fingerprint::solution_fingerprint;
use crate::PlanError;
use pnet_flowsim::McfSolution;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: the topology and commodity-set fingerprints plus a query tag
/// folding everything else that can change solver output (query kind, K,
/// the exact bits of ε).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemoKey {
    /// [`crate::fingerprint::topology_fingerprint`] of the queried network.
    pub topology: u64,
    /// [`crate::fingerprint::commodity_fingerprint`] of the traffic matrix.
    pub commodities: u64,
    /// FNV-1a fold of the query shape (kind tag, K, ε bits).
    pub query: u64,
}

/// Cumulative memo counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that ran a cold solve.
    pub misses: u64,
    /// Distinct solutions currently cached.
    pub entries: usize,
}

/// Concurrent solution cache. Solves run *outside* the lock, so queries
/// for different keys never serialize on each other; the lock guards the
/// map and its counters together, so [`Memo::stats`] is one consistent
/// snapshot (every entry was counted as a miss before it was inserted).
#[derive(Default)]
pub struct Memo {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    map: BTreeMap<MemoKey, Arc<McfSolution>>,
    hits: u64,
    misses: u64,
}

impl Memo {
    /// An empty cache.
    pub fn new() -> Memo {
        Memo::default()
    }

    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("invariant: memo lock is never poisoned")
    }

    /// Look `key` up, or run `solve` and publish the result. Errors are
    /// returned to the caller and never cached. Two racing solves for the
    /// same key both complete; the first insert wins and the results are
    /// asserted bit-identical.
    pub fn get_or_solve(
        &self,
        key: MemoKey,
        solve: impl FnOnce() -> Result<McfSolution, PlanError>,
    ) -> Result<Arc<McfSolution>, PlanError> {
        {
            let mut inner = self.locked();
            if let Some(hit) = inner.map.get(&key).cloned() {
                inner.hits += 1;
                return Ok(hit);
            }
            inner.misses += 1;
        }
        let solved = Arc::new(solve()?);
        let mut inner = self.locked();
        if let Some(first) = inner.map.get(&key) {
            assert_eq!(
                solution_fingerprint(first),
                solution_fingerprint(&solved),
                "memoized solution diverged from a concurrent cold solve"
            );
            return Ok(Arc::clone(first));
        }
        inner.map.insert(key, Arc::clone(&solved));
        Ok(solved)
    }

    /// Current counters, read under the one lock.
    pub fn stats(&self) -> MemoStats {
        let inner = self.locked();
        MemoStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
        }
    }
}
