//! Intervals of the ordered domain and ordered partitions into intervals.
//!
//! The paper's algorithm is built around interval partitions: ApproxPart
//! (Proposition 3.4) produces one, the Learner (Lemma 3.5) flattens over
//! one, and the Sieve discards members of one. [`Interval`] is a half-open
//! `[lo, hi)` range of 0-based domain indices; [`Partition`] is an ordered,
//! gap-free, non-overlapping cover of `0..n`.

use crate::error::HistoError;
use crate::Result;

/// A non-empty contiguous interval `[lo, hi)` of 0-based domain indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    lo: usize,
    hi: usize,
}

impl Interval {
    /// Creates the interval `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::InvalidInterval`] if `lo >= hi`.
    pub fn new(lo: usize, hi: usize) -> Result<Self> {
        if lo >= hi {
            return Err(HistoError::InvalidInterval {
                lo,
                hi,
                n: usize::MAX,
            });
        }
        Ok(Self { lo, hi })
    }

    /// Creates `[lo, hi)` checking it fits in a domain of size `n`.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::InvalidInterval`] if `lo >= hi` or `hi > n`.
    pub fn new_in_domain(lo: usize, hi: usize, n: usize) -> Result<Self> {
        if lo >= hi || hi > n {
            return Err(HistoError::InvalidInterval { lo, hi, n });
        }
        Ok(Self { lo, hi })
    }

    /// The singleton interval `{i}`.
    pub fn singleton(i: usize) -> Self {
        Self { lo: i, hi: i + 1 }
    }

    /// Inclusive start.
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Exclusive end.
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Number of domain elements covered.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Intervals are never empty by construction; provided for idiom.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the interval is a singleton.
    pub fn is_singleton(&self) -> bool {
        self.len() == 1
    }

    /// Whether `i` lies in the interval.
    pub fn contains(&self, i: usize) -> bool {
        self.lo <= i && i < self.hi
    }

    /// Iterator over the covered indices.
    pub fn indices(&self) -> std::ops::Range<usize> {
        self.lo..self.hi
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// An ordered partition of the domain `0..n` into contiguous intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    n: usize,
    intervals: Vec<Interval>,
}

impl Partition {
    /// Builds a partition from intervals, verifying they exactly tile
    /// `0..n` in order.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::NotAPartition`] on gaps, overlaps, or wrong
    /// coverage; [`HistoError::EmptyDomain`] if `n == 0`.
    pub fn new(n: usize, intervals: Vec<Interval>) -> Result<Self> {
        if n == 0 {
            return Err(HistoError::EmptyDomain);
        }
        if intervals.is_empty() {
            return Err(HistoError::NotAPartition {
                reason: "no intervals".into(),
            });
        }
        let mut expected = 0usize;
        for (idx, iv) in intervals.iter().enumerate() {
            if iv.lo() != expected {
                return Err(HistoError::NotAPartition {
                    reason: format!(
                        "interval #{idx} starts at {} but {} expected",
                        iv.lo(),
                        expected
                    ),
                });
            }
            expected = iv.hi();
        }
        if expected != n {
            return Err(HistoError::NotAPartition {
                reason: format!("intervals cover 0..{expected}, domain is 0..{n}"),
            });
        }
        Ok(Self { n, intervals })
    }

    /// Builds a partition from the sorted list of interval *start* indices
    /// (which must begin with 0).
    ///
    /// # Errors
    ///
    /// Propagates [`HistoError::NotAPartition`] from [`Partition::new`].
    pub fn from_starts(n: usize, starts: &[usize]) -> Result<Self> {
        if starts.first() != Some(&0) {
            return Err(HistoError::NotAPartition {
                reason: "first start must be 0".into(),
            });
        }
        let mut intervals = Vec::with_capacity(starts.len());
        for (idx, &lo) in starts.iter().enumerate() {
            let hi = if idx + 1 < starts.len() {
                starts[idx + 1]
            } else {
                n
            };
            intervals.push(Interval::new_in_domain(lo, hi, n)?);
        }
        Self::new(n, intervals)
    }

    /// The trivial partition `{[0, n)}`.
    pub fn trivial(n: usize) -> Result<Self> {
        Self::new(n, vec![Interval::new_in_domain(0, n, n)?])
    }

    /// The finest partition: every element a singleton.
    pub fn singletons(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(HistoError::EmptyDomain);
        }
        Ok(Self {
            n,
            intervals: (0..n).map(Interval::singleton).collect(),
        })
    }

    /// Splits `0..n` into `parts` near-equal contiguous intervals.
    ///
    /// # Errors
    ///
    /// Returns [`HistoError::InvalidParameter`] if `parts == 0` or
    /// `parts > n`.
    pub fn equal_width(n: usize, parts: usize) -> Result<Self> {
        if parts == 0 || parts > n {
            return Err(HistoError::InvalidParameter {
                name: "parts",
                reason: format!("need 1 <= parts <= n, got parts = {parts}, n = {n}"),
            });
        }
        let mut intervals = Vec::with_capacity(parts);
        let base = n / parts;
        let extra = n % parts;
        let mut lo = 0;
        for j in 0..parts {
            let width = base + usize::from(j < extra);
            intervals.push(Interval::new_in_domain(lo, lo + width, n)?);
            lo += width;
        }
        Self::new(n, intervals)
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Partitions are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The intervals, in domain order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The interval at position `j`.
    pub fn interval(&self, j: usize) -> Interval {
        self.intervals[j]
    }

    /// Index of the interval containing domain element `i` (binary search).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn locate(&self, i: usize) -> usize {
        assert!(i < self.n, "element {i} outside domain 0..{}", self.n);
        // partition_point returns the count of intervals with hi <= i, i.e.
        // the index of the first interval with hi > i, which contains i.
        self.intervals.partition_point(|iv| iv.hi() <= i)
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let iv = Interval::new_in_domain(2, 5, 10).unwrap();
        assert_eq!(iv.len(), 3);
        assert!(iv.contains(2) && iv.contains(4) && !iv.contains(5));
        assert!(!iv.is_singleton());
        assert!(Interval::singleton(7).is_singleton());
        assert!(Interval::new(3, 3).is_err());
        assert!(Interval::new_in_domain(3, 11, 10).is_err());
    }

    #[test]
    fn partition_validation() {
        let n = 10;
        let good = Partition::new(
            n,
            vec![
                Interval::new(0, 4).unwrap(),
                Interval::new(4, 7).unwrap(),
                Interval::new(7, 10).unwrap(),
            ],
        );
        assert!(good.is_ok());

        let gap = Partition::new(
            n,
            vec![Interval::new(0, 4).unwrap(), Interval::new(5, 10).unwrap()],
        );
        assert!(matches!(gap, Err(HistoError::NotAPartition { .. })));

        let short = Partition::new(n, vec![Interval::new(0, 9).unwrap()]);
        assert!(matches!(short, Err(HistoError::NotAPartition { .. })));

        assert!(Partition::new(0, vec![]).is_err());
    }

    #[test]
    fn from_starts_round_trips() {
        let p = Partition::from_starts(10, &[0, 4, 7]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.interval(1), Interval::new(4, 7).unwrap());
        assert!(Partition::from_starts(10, &[1, 4]).is_err());
    }

    #[test]
    fn locate_finds_containing_interval() {
        let p = Partition::from_starts(10, &[0, 4, 7]).unwrap();
        assert_eq!(p.locate(0), 0);
        assert_eq!(p.locate(3), 0);
        assert_eq!(p.locate(4), 1);
        assert_eq!(p.locate(6), 1);
        assert_eq!(p.locate(7), 2);
        assert_eq!(p.locate(9), 2);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn locate_out_of_domain_panics() {
        Partition::trivial(5).unwrap().locate(5);
    }

    #[test]
    fn equal_width_covers_domain() {
        let p = Partition::equal_width(10, 3).unwrap();
        assert_eq!(p.len(), 3);
        let total: usize = p.intervals().iter().map(|iv| iv.len()).sum();
        assert_eq!(total, 10);
        // Widths differ by at most one.
        let lens: Vec<usize> = p.intervals().iter().map(|iv| iv.len()).collect();
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
        assert!(Partition::equal_width(3, 5).is_err());
    }

    #[test]
    fn singleton_partition() {
        let p = Partition::singletons(4).unwrap();
        assert_eq!(p.len(), 4);
        assert!(p.intervals().iter().all(|iv| iv.is_singleton()));
    }
}
