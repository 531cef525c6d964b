//! Uniformly random permutations (Fisher–Yates) for the Section 4.2
//! reduction.

use histo_stats::PortableRng;

/// A uniformly random permutation of `0..n` (Fisher–Yates shuffle).
/// `sigma\[i\]` is the image of `i`.
pub fn random_permutation(n: usize, rng: &mut PortableRng) -> Vec<usize> {
    let mut sigma: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut sigma);
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `sigma` is a permutation of `0..n`.
    fn is_permutation(sigma: &[usize]) -> bool {
        let mut seen = vec![false; sigma.len()];
        for &s in sigma {
            if s >= sigma.len() || seen[s] {
                return false;
            }
            seen[s] = true;
        }
        true
    }

    #[test]
    fn produces_valid_permutations() {
        let mut rng = PortableRng::seed_from(5);
        for n in [0usize, 1, 2, 17, 100] {
            let sigma = random_permutation(n, &mut rng);
            assert_eq!(sigma.len(), n);
            assert!(is_permutation(&sigma));
        }
    }

    #[test]
    fn permutations_are_roughly_uniform() {
        // Over S_3 (6 permutations), frequencies should be near 1/6.
        let mut rng = PortableRng::seed_from(7);
        let mut counts = std::collections::HashMap::new();
        let trials = 60_000;
        for _ in 0..trials {
            let p = random_permutation(3, &mut rng);
            *counts.entry(p).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len(), 6);
        for (_, &c) in counts.iter() {
            let f = c as f64 / trials as f64;
            assert!((f - 1.0 / 6.0).abs() < 0.01, "frequency {f}");
        }
    }

    #[test]
    fn is_permutation_detects_problems() {
        assert!(is_permutation(&[2, 0, 1]));
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3, 1]));
        assert!(is_permutation(&[]));
    }
}
