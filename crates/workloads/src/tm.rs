//! Traffic-matrix generators: the synthetic patterns of section 5.1.
//!
//! * **all-to-all** — every host (or rack) sends to every other: the dense
//!   pattern that even naive ECMP can spread across planes (Figure 6a);
//! * **permutation** — every host sends to exactly one other host and
//!   receives from exactly one: the sparse pattern that defeats single-path
//!   routing in P-Nets (Figure 6b).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A random permutation of `0..n` without fixed points (each index maps to a
/// different index), deterministic in `seed`.
///
/// Built by shuffling and then rotating any fixed points into a cycle, so the
/// result is always a derangement for `n >= 2`.
pub fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    assert!(n >= 2, "permutation traffic needs at least two endpoints");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    // Repair fixed points: collect them and rotate amongst themselves (or
    // with a neighbor if only one remains).
    let fixed: Vec<usize> = (0..n).filter(|&i| perm[i] == i).collect();
    match fixed.len() {
        0 => {}
        1 => {
            let i = fixed[0];
            let j = (i + 1) % n;
            perm.swap(i, j);
        }
        _ => {
            // Rotate the images of the fixed points amongst themselves:
            // each fixed point then maps to the next fixed point.
            let first = perm[fixed[0]];
            for w in 0..fixed.len() - 1 {
                perm[fixed[w]] = perm[fixed[w + 1]];
            }
            perm[*fixed
                .last()
                .expect("invariant: this branch only runs with >= 2 fixed points")] = first;
        }
    }
    debug_assert!((0..n).all(|i| perm[i] != i));
    perm
}

/// Source/destination index pairs of a permutation pattern.
pub fn permutation_pairs(n: usize, seed: u64) -> Vec<(usize, usize)> {
    random_permutation(n, seed)
        .into_iter()
        .enumerate()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_derangement() {
        for seed in 0..50 {
            let p = random_permutation(20, seed);
            let mut seen = [false; 20];
            for (i, &j) in p.iter().enumerate() {
                assert_ne!(i, j, "fixed point at {i} (seed {seed})");
                assert!(!seen[j], "duplicate image {j}");
                seen[j] = true;
            }
        }
    }

    #[test]
    fn permutation_deterministic() {
        assert_eq!(random_permutation(16, 7), random_permutation(16, 7));
        assert_ne!(random_permutation(16, 7), random_permutation(16, 8));
    }

    #[test]
    fn tiny_permutation() {
        let p = random_permutation(2, 0);
        assert_eq!(p, vec![1, 0]);
    }
}
