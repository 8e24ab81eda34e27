//! Serial/parallel execution strategy for bulk computations.
//!
//! Every parallel fan-out in the workspace routes through
//! [`Parallelism::map_indexed`]: results are computed per index and collected
//! in index order, so `Serial` and `Rayon` produce *identical* outputs for
//! any pure per-index function. That property is what the determinism
//! regression tests pin down (serial vs parallel route tables and MCF
//! solutions must match bit-for-bit).
//!
//! [`Parallelism::Rayon`] hands both fan-outs to the one process-wide worker
//! pool in `vendor/rayon`. Its thread count is `RAYON_NUM_THREADS` (else the
//! machine's available parallelism), read once per process;
//! `RAYON_NUM_THREADS=1` degenerates to the serial loop, and so does a
//! fan-out issued while the pool is busy (from another thread, or nested
//! inside a job).

/// How a bulk computation fans out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Plain sequential loop (reference semantics).
    Serial,
    /// Fan out across threads via rayon, collecting in index order.
    #[default]
    Rayon,
}

impl Parallelism {
    /// Worker threads this strategy will use.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Rayon => rayon::current_num_threads(),
        }
    }

    /// Map `f` over `0..n`, collecting results in index order. `Serial` and
    /// `Rayon` return identical vectors for pure `f`.
    pub fn map_indexed<R, F>(self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        match self {
            Parallelism::Serial => (0..n).map(f).collect(),
            Parallelism::Rayon => rayon::par_map_index(n, f),
        }
    }

    /// Update every slot of `items` in place via `f(index, &mut item)`. Each
    /// index is touched exactly once, so for per-index-pure `f` the result is
    /// independent of the strategy — this is the in-place sibling of
    /// [`Parallelism::map_indexed`] for recomputing persistent per-worker
    /// state (e.g. the GK phase trees) without reallocating it.
    pub fn update_indexed<T, F>(self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        match self {
            Parallelism::Serial => {
                for (i, item) in items.iter_mut().enumerate() {
                    f(i, item);
                }
            }
            Parallelism::Rayon => rayon::par_update_index(items, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_rayon_agree() {
        let f = |i: usize| (i * 31) ^ 7;
        assert_eq!(
            Parallelism::Serial.map_indexed(100, f),
            Parallelism::Rayon.map_indexed(100, f)
        );
    }

    #[test]
    fn update_indexed_serial_and_rayon_agree() {
        let mut a: Vec<usize> = (0..64).collect();
        let mut b = a.clone();
        let f = |i: usize, x: &mut usize| *x = *x * 3 + i;
        Parallelism::Serial.update_indexed(&mut a, f);
        Parallelism::Rayon.update_indexed(&mut b, f);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_counts() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert!(Parallelism::Rayon.threads() >= 1);
    }
}
