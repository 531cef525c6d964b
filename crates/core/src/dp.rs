//! Dynamic programs for distances to the class `H_k`.
//!
//! Three primitives:
//!
//! 1. [`best_kpiece_fit`] — the exact optimal approximation of a
//!    piecewise-constant target by a *function* with at most `k` pieces
//!    under (weighted) `ℓ1` error, via a weighted-median segment-cost DP.
//!    Since `H_k` (distributions) is a subset of k-piece functions, half the
//!    optimal cost is a certified **lower bound** on `d_TV(D, H_k)`; and
//!    because the optimal fit is non-negative (weighted medians of
//!    non-negative data), renormalizing it yields a genuine element of `H_k`
//!    whose distance is a certified **upper bound** (at most twice the lower
//!    bound). [`distance_to_hk_bounds`] packages both;
//!    [`distance_to_hk_lower_bound`] computes just the lower bound via
//!    [`best_kpiece_fit_cost`].
//!
//! 2. [`check_close_to_hk`] — Algorithm 1, Step 10: decide whether a learned
//!    `K`-flat hypothesis `D̂` restricted to the surviving subdomain `G` is
//!    within a TV threshold of some k-histogram, in time polynomial in `K`
//!    and `k` (the DP of [CDGR16, Lemma 4.11]; breakpoints may be placed at
//!    block boundaries WLOG because the target is itself block-constant).
//!    Compares the exact optimal cost with the threshold.
//!
//! 3. [`constrained_distance_to_hk`] — the mass-quantized DP that respects
//!    the simplex constraint `Σ D* = 1` exactly (up to grid resolution),
//!    used as a reference implementation in tests and experiment T9.
//!
//! # Engine architecture and complexity
//!
//! The historical implementation (retained as [`best_kpiece_fit_reference`]
//! for equivalence testing) materializes B×B `seg_cost`/`seg_level`
//! matrices: `O(k·B² + B²·log B)` time and `O(B²)` memory. The production
//! engine never builds those matrices and serves all three of
//! [`best_kpiece_fit`], [`best_kpiece_fit_cost`] and [`check_close_to_hk`].
//! Its pieces:
//!
//! - [`SegCostOracle`]: answers `cost(a, e)` / `level(a, e)` on demand from
//!   a Fenwick (binary-indexed) tree over the rank-compressed block levels,
//!   holding `(weight, weight·level)` prefix sums. A query locates the
//!   weighted median by binary-lifting descent and assembles the two
//!   half-sums in `O(log B)`; window maintenance is **insert-only** (windows
//!   grow left along a fixed-`e` sweep or right along a fixed-`a` sweep) with
//!   explicit path-zeroing resets, so no floating-point drift from
//!   add/remove cancellation ever accumulates. Memory `O(B)`.
//!
//! - **Shared-column DP**: an `e`-outer loop. For each right endpoint `e`
//!   one descending oracle sweep produces the suffix costs `C(s, e)`, and
//!   *all* `k` layers consume the column with cheap sequential reads of a
//!   transposed `B×k` DP table. The sweep stops early once `C(s, e)`
//!   reaches the maximum of the per-layer running bests — admissible
//!   because segment cost is monotone under window inclusion, so no
//!   remaining candidate can strictly improve any layer. Worst case
//!   `O(B²·log B + k·B²)` time; structured inputs prune far below that.
//!   Memory `O(k·B)`; the transposed table doubles as the backtracking
//!   record for [`best_kpiece_fit`], while the cost-only callers read the
//!   minimum of its last row. Sequential: row `e` depends on rows `< e`.
//!
//! ## Why divide-and-conquer alone is *not* exact here
//!
//! For SSE/ℓ2 segment costs the classical concave-Monge inequality holds
//! and pure D&C argmin splitting is exact. The weighted-ℓ1 median cost on
//! *positional* windows (arbitrary level order) is **not** concave-Monge:
//! with levels `[0, 0.3, 0.2917, 0.3, 0.6907]` and weights `[2, 7, 2, 7,
//! 7]`, `C(0,2) + C(2,3) > C(0,3) + C(2,2)` (see
//! `monge_counterexample_documented` in the tests). Consequently the layer
//! argmin need not be monotone, and a pure D&C solver can over-estimate;
//! the engine scans every candidate start up to the admissible break
//! instead. Equivalence against the quadratic reference is tested to
//! 1e-12 (`tests/dp_equivalence`).

use crate::dist::Distribution;
use crate::error::HistoError;
use crate::histogram::KHistogram;
use crate::interval::Partition;
use crate::Result;
use std::collections::BTreeMap;

/// One block of a piecewise-constant target function: `width` consecutive
/// domain elements all carrying per-element value `level`. Blocks with
/// `counted == false` (discarded by the Sieve) contribute no error but still
/// occupy domain width (and mass, for the constrained DP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Number of domain elements in the block.
    pub width: usize,
    /// Per-element value of the target on this block.
    pub level: f64,
    /// Whether approximation error on this block is counted.
    pub counted: bool,
}

impl Block {
    /// A counted block.
    pub fn counted(width: usize, level: f64) -> Self {
        Self {
            width,
            level,
            counted: true,
        }
    }
}

/// Builds one block per domain element from a dense distribution.
pub fn blocks_from_distribution(d: &Distribution) -> Vec<Block> {
    d.pmf().iter().map(|&p| Block::counted(1, p)).collect()
}

/// Builds one block per partition interval from a succinct histogram, with
/// a per-interval `counted` mask (`true` = inside the surviving domain `G`).
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] if the mask length differs from
/// the number of intervals.
pub fn blocks_from_histogram(h: &KHistogram, counted: &[bool]) -> Result<Vec<Block>> {
    if counted.len() != h.num_pieces() {
        return Err(HistoError::InvalidParameter {
            name: "counted",
            reason: format!(
                "mask has {} entries for {} intervals",
                counted.len(),
                h.num_pieces()
            ),
        });
    }
    Ok(h.partition()
        .intervals()
        .iter()
        .zip(h.levels())
        .zip(counted)
        .map(|((iv, &level), &c)| Block {
            width: iv.len(),
            level,
            counted: c,
        })
        .collect())
}

/// Result of [`best_kpiece_fit`]: the optimal `<= k`-piece function.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseFit {
    /// Total (weighted) `ℓ1` error over counted blocks.
    pub l1_cost: f64,
    /// Block index at which each piece starts (first entry is 0).
    pub piece_starts: Vec<usize>,
    /// Per-element level of each piece.
    pub piece_levels: Vec<f64>,
}

impl PiecewiseFit {
    /// Total mass of the fitted function given the blocks it was fit to.
    pub fn total_mass(&self, blocks: &[Block]) -> f64 {
        let mut mass = 0.0;
        for (p, &start) in self.piece_starts.iter().enumerate() {
            let end = self
                .piece_starts
                .get(p + 1)
                .copied()
                .unwrap_or(blocks.len());
            let width: usize = blocks[start..end].iter().map(|b| b.width).sum();
            mass += self.piece_levels[p] * width as f64;
        }
        mass
    }
}

/// Weighted-median accumulator over `(level, weight)` pairs supporting
/// incremental insertion and O(1) queries of the optimal `ℓ1` cost
/// `min_c Σ w |v − c|`. Used by the quadratic reference implementation and
/// as a test oracle for [`SegCostOracle`].
///
/// Invariant: `lower` holds the smaller levels with total weight
/// `w_lower >= w_upper`, and removing the largest element of `lower` would
/// break that — so the weighted median is `max(lower)`.
struct MedianCost {
    lower: BTreeMap<u64, f64>, // level bits -> weight
    upper: BTreeMap<u64, f64>,
    w_lower: f64,
    w_upper: f64,
    sum_lower: f64, // Σ w·v over lower
    sum_upper: f64,
}

fn bits(v: f64) -> u64 {
    debug_assert!(v >= 0.0 && v.is_finite());
    // Normalize -0.0 (whose bit pattern would sort above every positive
    // float) so keys order consistently with the values.
    let v = if v == 0.0 { 0.0 } else { v };
    v.to_bits() // non-negative floats order correctly as u64
}

fn level(bits: u64) -> f64 {
    f64::from_bits(bits)
}

impl MedianCost {
    fn new() -> Self {
        Self {
            lower: BTreeMap::new(),
            upper: BTreeMap::new(),
            w_lower: 0.0,
            w_upper: 0.0,
            sum_lower: 0.0,
            sum_upper: 0.0,
        }
    }

    fn insert(&mut self, v: f64, w: f64) {
        if w <= 0.0 {
            return;
        }
        let key = bits(v);
        let into_lower = match self.lower.keys().next_back() {
            Some(&maxlo) => key <= maxlo,
            None => true,
        };
        if into_lower {
            *self.lower.entry(key).or_insert(0.0) += w;
            self.w_lower += w;
            self.sum_lower += w * v;
        } else {
            *self.upper.entry(key).or_insert(0.0) += w;
            self.w_upper += w;
            self.sum_upper += w * v;
        }
        self.rebalance();
    }

    fn rebalance(&mut self) {
        // Move from lower to upper while lower minus its top element still
        // dominates upper.
        while let Some((&k, &w)) = self.lower.iter().next_back() {
            if self.w_lower - w >= self.w_upper + w {
                self.lower.remove(&k);
                self.w_lower -= w;
                self.sum_lower -= w * level(k);
                *self.upper.entry(k).or_insert(0.0) += w;
                self.w_upper += w;
                self.sum_upper += w * level(k);
            } else {
                break;
            }
        }
        // Move from upper to lower while upper dominates lower.
        while self.w_upper > self.w_lower {
            let (&k, &w) = self
                .upper
                .iter()
                .next()
                .expect("upper non-empty when it outweighs lower");
            self.upper.remove(&k);
            self.w_upper -= w;
            self.sum_upper -= w * level(k);
            *self.lower.entry(k).or_insert(0.0) += w;
            self.w_lower += w;
            self.sum_lower += w * level(k);
        }
    }

    /// The current weighted median (0 when empty).
    fn median(&self) -> f64 {
        self.lower
            .keys()
            .next_back()
            .map(|&k| level(k))
            .unwrap_or(0.0)
    }

    /// `min_c Σ w |v − c|`, achieved at the weighted median.
    fn cost(&self) -> f64 {
        let m = self.median();
        (m * self.w_lower - self.sum_lower) + (self.sum_upper - m * self.w_upper)
    }
}

fn validate_fit_params(blocks: &[Block], k: usize) -> Result<()> {
    if blocks.is_empty() {
        return Err(HistoError::InvalidParameter {
            name: "blocks",
            reason: "no blocks".into(),
        });
    }
    if k == 0 {
        return Err(HistoError::InvalidParameter {
            name: "k",
            reason: "need at least one piece".into(),
        });
    }
    Ok(())
}

/// The historical quadratic DP, kept verbatim as the equivalence oracle for
/// property tests and benchmarks: `O(k·B² + B²·log B)` time, `O(B²)`
/// memory. Use [`best_kpiece_fit`] everywhere else.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] if `k == 0` or `blocks` is
/// empty.
#[doc(hidden)]
pub fn best_kpiece_fit_reference(blocks: &[Block], k: usize) -> Result<PiecewiseFit> {
    validate_fit_params(blocks, k)?;
    let b = blocks.len();
    let k = k.min(b);

    // seg_cost[a][e] = optimal 1-piece cost on blocks a..=e; seg_level the
    // optimizing level (weighted median of counted blocks).
    let mut seg_cost = vec![vec![0.0_f64; b]; b];
    let mut seg_level = vec![vec![0.0_f64; b]; b];
    for a in 0..b {
        let mut acc = MedianCost::new();
        for e in a..b {
            if blocks[e].counted {
                acc.insert(blocks[e].level, blocks[e].width as f64);
            }
            seg_cost[a][e] = acc.cost();
            seg_level[a][e] = acc.median();
        }
    }

    // dp[p][e] = best cost covering blocks 0..=e with exactly p+1 pieces;
    // choice[p][e] = start block of the last piece.
    let mut dp = vec![vec![f64::INFINITY; b]; k];
    let mut choice = vec![vec![0usize; b]; k];
    for e in 0..b {
        dp[0][e] = seg_cost[0][e];
    }
    for p in 1..k {
        for e in p..b {
            let mut best = f64::INFINITY;
            let mut arg = p;
            for start in p..=e {
                let c = dp[p - 1][start - 1] + seg_cost[start][e];
                if c < best {
                    best = c;
                    arg = start;
                }
            }
            dp[p][e] = best;
            choice[p][e] = arg;
        }
    }

    // Fewer pieces can never beat more pieces, so take the best over p <= k.
    let (best_p, &best_cost) = dp
        .iter()
        .map(|row| &row[b - 1])
        .enumerate()
        .min_by(|(_, a), (_, c)| a.partial_cmp(c).expect("finite costs"))
        .expect("k >= 1");

    // Reconstruct pieces right-to-left.
    let mut starts = Vec::with_capacity(best_p + 1);
    let mut end = b - 1;
    let mut p = best_p;
    loop {
        let start = if p == 0 { 0 } else { choice[p][end] };
        starts.push(start);
        if p == 0 {
            break;
        }
        end = start - 1;
        p -= 1;
    }
    starts.reverse();
    let mut levels = Vec::with_capacity(starts.len());
    for (i, &s) in starts.iter().enumerate() {
        let e = starts.get(i + 1).map(|&x| x - 1).unwrap_or(b - 1);
        levels.push(seg_level[s][e]);
    }
    Ok(PiecewiseFit {
        l1_cost: best_cost,
        piece_starts: starts,
        piece_levels: levels,
    })
}

/// Rank compression of block levels shared by every [`SegCostOracle`] over
/// the same block sequence: sorted distinct levels of counted,
/// positive-width blocks plus each block's rank (sentinel `u32::MAX` for
/// blocks that never contribute error).
#[derive(Debug, Clone)]
pub struct LevelIndex {
    rank_of_block: Vec<u32>,
    levels: Vec<f64>,
}

impl LevelIndex {
    /// Builds the index in `O(B log B)`.
    pub fn new(blocks: &[Block]) -> Self {
        let mut lv: Vec<f64> = blocks
            .iter()
            .filter(|b| b.counted && b.width > 0)
            .map(|b| if b.level == 0.0 { 0.0 } else { b.level })
            .collect();
        lv.sort_by(|a, b| a.partial_cmp(b).expect("finite levels"));
        lv.dedup();
        let rank_of_block = blocks
            .iter()
            .map(|b| {
                if b.counted && b.width > 0 {
                    let v = if b.level == 0.0 { 0.0 } else { b.level };
                    lv.binary_search_by(|x| x.partial_cmp(&v).expect("finite levels"))
                        .expect("level present by construction") as u32
                } else {
                    u32::MAX
                }
            })
            .collect();
        LevelIndex {
            rank_of_block,
            levels: lv,
        }
    }
}

/// On-demand segment-cost oracle over a window of blocks: answers
/// `cost(a, e)` (optimal 1-piece `ℓ1` error on blocks `a..=e`) and
/// `level(a, e)` (the optimizing weighted median) without any B×B matrix.
///
/// Backed by a Fenwick tree over level ranks holding `(weight,
/// weight·level)` prefix sums; a query costs `O(log B)` and window moves
/// are amortized `O(log B)` along sweeps that grow the window leftward
/// (fixed `e`) or rightward (fixed `a`). Maintenance is insert-only with
/// explicit path-zeroing resets so no floating-point drift from add/remove
/// cancellation accumulates across queries. Memory `O(B)`.
pub struct SegCostOracle<'a> {
    blocks: &'a [Block],
    idx: &'a LevelIndex,
    fw: Vec<f64>,
    fwv: Vec<f64>,
    touched: Vec<u32>,
    total_w: f64,
    total_wv: f64,
    lo: usize,
    hi: usize, // window [lo, hi); empty when lo == hi
}

impl<'a> SegCostOracle<'a> {
    /// A fresh oracle with an empty window. The index must have been built
    /// from the same `blocks`.
    pub fn new(blocks: &'a [Block], idx: &'a LevelIndex) -> Self {
        let n = idx.levels.len();
        Self {
            blocks,
            idx,
            fw: vec![0.0; n + 1],
            fwv: vec![0.0; n + 1],
            touched: Vec::with_capacity(64),
            total_w: 0.0,
            total_wv: 0.0,
            lo: 0,
            hi: 0,
        }
    }

    /// Zeroes exactly the Fenwick paths previously touched, restoring a
    /// pristine (bitwise-zero) tree without an O(levels) clear.
    fn reset(&mut self) {
        for t in std::mem::take(&mut self.touched) {
            let mut pos = t as usize + 1;
            while pos < self.fw.len() {
                self.fw[pos] = 0.0;
                self.fwv[pos] = 0.0;
                pos += pos & pos.wrapping_neg();
            }
        }
        self.total_w = 0.0;
        self.total_wv = 0.0;
        self.lo = 0;
        self.hi = 0;
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        let r = self.idx.rank_of_block[i];
        if r == u32::MAX {
            return;
        }
        self.touched.push(r);
        let w = self.blocks[i].width as f64;
        let wv = w * self.idx.levels[r as usize];
        self.total_w += w;
        self.total_wv += wv;
        let mut pos = r as usize + 1;
        while pos < self.fw.len() {
            self.fw[pos] += w;
            self.fwv[pos] += wv;
            pos += pos & pos.wrapping_neg();
        }
    }

    /// Points the window at blocks `a..=e`. Amortized `O(log B)` per call
    /// along sweeps that fix `e` and decrease `a`, or fix `a` and increase
    /// `e`; otherwise `O(width · log B)` to rebuild.
    fn set_window(&mut self, a: usize, e: usize) {
        let b_excl = e + 1;
        if a == self.lo && b_excl >= self.hi && self.lo != self.hi {
            // Grow right (ascending-e sweep).
            for i in self.hi..b_excl {
                self.insert(i);
            }
            self.hi = b_excl;
        } else if self.hi == b_excl && self.lo != self.hi && a <= self.lo {
            // Grow left (descending-a sweep).
            for i in (a..self.lo).rev() {
                self.insert(i);
            }
            self.lo = a;
        } else {
            self.reset();
            self.lo = a;
            self.hi = b_excl;
            for i in a..b_excl {
                self.insert(i);
            }
        }
    }

    /// (optimal 1-piece cost, optimizing level) of the current window.
    fn query(&self) -> (f64, f64) {
        if self.total_w <= 0.0 {
            return (0.0, 0.0);
        }
        let n = self.fw.len() - 1;
        // Largest prefix of ranks with 2·weight < total; the weighted
        // (lower) median is the next rank — the same convention as
        // `MedianCost::median` (max of the dominating lower half).
        let mut pos = 0usize;
        let mut wacc = 0.0;
        let mut step = 1usize << (usize::BITS - 1 - n.leading_zeros());
        while step > 0 {
            let next = pos + step;
            if next <= n && 2.0 * (wacc + self.fw[next]) < self.total_w {
                pos = next;
                wacc += self.fw[next];
            }
            step >>= 1;
        }
        let m = self.idx.levels[pos];
        // Prefix sums including the median bucket.
        let (mut wle, mut sle) = (0.0, 0.0);
        let mut q = pos + 1;
        while q > 0 {
            wle += self.fw[q];
            sle += self.fwv[q];
            q &= q - 1;
        }
        let cost = (m * wle - sle) + (self.total_wv - sle) - m * (self.total_w - wle);
        (cost.max(0.0), m)
    }

    /// Optimal 1-piece `ℓ1` cost on blocks `a..=e`.
    pub fn cost(&mut self, a: usize, e: usize) -> f64 {
        self.set_window(a, e);
        self.query().0
    }

    /// The cost-optimizing level (weighted median) on blocks `a..=e`.
    pub fn level(&mut self, a: usize, e: usize) -> f64 {
        self.set_window(a, e);
        self.query().1
    }
}

/// The `e`-outer shared-column fit engine (see module docs). Returns the
/// transposed DP table `dpt[e·k + p]` (cost of covering `0..=e` with
/// exactly `p + 1` pieces), the matching argmin table, and the effective
/// `k`. Sequential by necessity: row `e` depends on rows `< e`.
fn fit_engine(blocks: &[Block], k: usize) -> (Vec<f64>, Vec<u32>, usize) {
    let b = blocks.len();
    let k = k.min(b);
    let idx = LevelIndex::new(blocks);
    let mut dpt = vec![f64::INFINITY; b * k];
    let mut cht = vec![0u32; b * k];
    let mut asc = SegCostOracle::new(blocks, &idx); // window [0, e]
    let mut col = SegCostOracle::new(blocks, &idx); // window [s, e]
    let mut best = vec![f64::INFINITY; k];
    let mut arg = vec![0u32; k];
    for e in 0..b {
        dpt[e * k] = asc.cost(0, e);
        if k == 1 {
            continue;
        }
        for p in 1..k {
            best[p] = f64::INFINITY;
            arg[p] = p as u32;
        }
        // One descending sweep produces the suffix-cost column C(s, e);
        // every layer consumes it with sequential reads of the transposed
        // previous rows. Admissible break: C is monotone in window
        // inclusion, so once it reaches the max of the running bests no
        // remaining candidate strictly improves any layer.
        let mut cap = f64::INFINITY;
        let mut cap_p = 1usize;
        for s in (1..=e).rev() {
            let c = col.cost(s, e);
            if c >= cap {
                break;
            }
            let prev = &dpt[(s - 1) * k..s * k];
            let p_hi = k.min(s + 1);
            let mut cap_entry_improved = false;
            for p in 1..p_hi {
                let v = prev[p - 1] + c;
                if v < best[p] {
                    best[p] = v;
                    arg[p] = s as u32;
                    if p == cap_p {
                        cap_entry_improved = true;
                    }
                }
            }
            if cap.is_infinite() || cap_entry_improved {
                cap = f64::NEG_INFINITY;
                for (p, &bp) in best.iter().enumerate().skip(1) {
                    if bp.is_finite() && bp > cap {
                        cap = bp;
                        cap_p = p;
                    }
                }
                if cap == f64::NEG_INFINITY {
                    cap = f64::INFINITY;
                }
            }
        }
        for p in 1..k {
            dpt[e * k + p] = best[p];
            cht[e * k + p] = arg[p];
        }
    }
    (dpt, cht, k)
}

/// Computes the optimal approximation of the block-constant target by a
/// function with at most `k` pieces (piece boundaries at block boundaries,
/// which is optimal because the target is block-constant), minimizing the
/// width-weighted `ℓ1` error over counted blocks.
///
/// Shared-column DP with an on-demand [`SegCostOracle`]: worst-case
/// `O(B²·log B + k·B²)` time with admissible pruning (structured inputs
/// run far below that), `O(k·B)` memory — no B×B matrices. Exact;
/// property-tested against [`best_kpiece_fit_reference`].
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] if `k == 0` or `blocks` is
/// empty.
pub fn best_kpiece_fit(blocks: &[Block], k: usize) -> Result<PiecewiseFit> {
    validate_fit_params(blocks, k)?;
    let b = blocks.len();
    let (dpt, cht, k) = fit_engine(blocks, k);

    // Fewer pieces can never beat more pieces, so take the best over p <= k
    // (last minimal layer, matching the reference's min_by semantics).
    let last_row = &dpt[(b - 1) * k..b * k];
    let (best_p, &best_cost) = last_row
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, c)| a.partial_cmp(c).expect("finite costs"))
        .expect("k >= 1");

    // Reconstruct pieces right-to-left.
    let mut starts = Vec::with_capacity(best_p + 1);
    let mut end = b - 1;
    let mut p = best_p;
    loop {
        let start = if p == 0 { 0 } else { cht[end * k + p] as usize };
        starts.push(start);
        if p == 0 {
            break;
        }
        end = start - 1;
        p -= 1;
    }
    starts.reverse();
    let idx = LevelIndex::new(blocks);
    let mut oracle = SegCostOracle::new(blocks, &idx);
    let mut levels = Vec::with_capacity(starts.len());
    for (i, &s) in starts.iter().enumerate() {
        let e = starts.get(i + 1).map(|&x| x - 1).unwrap_or(b - 1);
        levels.push(oracle.level(s, e));
    }
    Ok(PiecewiseFit {
        l1_cost: best_cost,
        piece_starts: starts,
        piece_levels: levels,
    })
}

/// The optimal `<= k`-piece `ℓ1` cost alone: the minimum of the fit
/// engine's last row, without backtracking the pieces. Equals
/// [`best_kpiece_fit`]`.l1_cost` exactly.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] if `k == 0` or `blocks` is
/// empty.
pub fn best_kpiece_fit_cost(blocks: &[Block], k: usize) -> Result<f64> {
    validate_fit_params(blocks, k)?;
    let b = blocks.len();
    let (dpt, _, k) = fit_engine(blocks, k);
    Ok(dpt[(b - 1) * k..]
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min))
}

/// Certified bounds on `d_TV(D, H_k)` together with a witness histogram.
#[derive(Debug, Clone)]
pub struct HkDistanceBounds {
    /// Lower bound: half the optimal k-piece *function* `ℓ1` cost.
    pub lower: f64,
    /// Upper bound: exact TV distance to [`HkDistanceBounds::witness`].
    pub upper: f64,
    /// A genuine member of `H_k` achieving `upper`.
    pub witness: KHistogram,
}

/// Computes certified lower and upper bounds on the total-variation
/// distance from `d` to the class `H_k`, plus the witness achieving the
/// upper bound. The gap is at most a factor 2 (see module docs); both
/// bounds are exact for `d ∈ H_k` (zero).
///
/// # Errors
///
/// Propagates parameter errors from [`best_kpiece_fit`].
pub fn distance_to_hk_bounds(d: &Distribution, k: usize) -> Result<HkDistanceBounds> {
    let blocks = blocks_from_distribution(d);
    let fit = best_kpiece_fit(&blocks, k)?;
    let lower = (fit.l1_cost / 2.0).max(0.0);

    // Build the witness: the fitted function is non-negative (medians of
    // non-negative data); renormalize to a distribution. If it is all-zero
    // (conceivable only when most mass sits on few points and k is tiny),
    // fall back to flattening d over the fit's pieces.
    let n = d.n();
    let mut starts_domain = Vec::with_capacity(fit.piece_starts.len());
    for &bs in &fit.piece_starts {
        // block index == domain index here (one block per element)
        starts_domain.push(bs);
    }
    let partition = Partition::from_starts(n, &starts_domain)?;
    let mass: f64 = fit.total_mass(&blocks);
    let witness = if mass > 0.0 {
        let levels: Vec<f64> = fit.piece_levels.iter().map(|&c| c / mass).collect();
        KHistogram::new(partition, levels)?
    } else {
        KHistogram::flattening_of(d, &partition)?
    };
    let upper = crate::distance::tv_to_histogram(d, &witness)?;
    Ok(HkDistanceBounds {
        lower,
        upper: upper.max(lower),
        witness,
    })
}

/// The certified lower bound on `d_TV(D, H_k)` alone — half the optimal
/// k-piece function cost — without building the witness.
/// Use when scanning many `k` values (model selection, k-modal bounds).
///
/// # Errors
///
/// Propagates parameter errors from [`best_kpiece_fit_cost`].
pub fn distance_to_hk_lower_bound(d: &Distribution, k: usize) -> Result<f64> {
    let blocks = blocks_from_distribution(d);
    Ok((best_kpiece_fit_cost(&blocks, k)? / 2.0).max(0.0))
}

/// Algorithm 1, Step 10: is there a `D* ∈ H_k` with restricted TV distance
/// `d^G_TV(D̂, D*) <= threshold`, where `G` is the union of the intervals of
/// `h`'s partition flagged `true` in `counted`?
///
/// Uses the k-piece-function relaxation (lower bound on the distance), so
/// this check is at least as permissive as the paper's — completeness is
/// preserved exactly, and any extra permissiveness is caught by the final
/// χ² test (Step 13). See module docs.
///
/// Computes the exact optimal `<= k`-piece cost with
/// [`best_kpiece_fit_cost`] and accepts iff half of it is at most
/// `threshold`.
///
/// # Errors
///
/// Propagates mask/parameter errors.
pub fn check_close_to_hk(
    h: &KHistogram,
    counted: &[bool],
    k: usize,
    threshold: f64,
) -> Result<bool> {
    let blocks = blocks_from_histogram(h, counted)?;
    Ok(best_kpiece_fit_cost(&blocks, k)? / 2.0 <= threshold)
}

/// Reference implementation with the simplex constraint: the minimal
/// restricted TV distance from the block-constant target to a k-piece
/// function with total mass exactly 1 (mass quantized to `mass_units`
/// units; additive error `O(k / mass_units)`).
///
/// State space is `O(B·mass_units)` (two rolling piece-layers) with
/// `O(B·mass_units)` transitions per state — use small instances only
/// (tests, experiment T9). Terminates early once an added piece no longer
/// improves any state.
///
/// # Errors
///
/// Returns [`HistoError::InvalidParameter`] for `k == 0`, empty blocks, or
/// `mass_units == 0`.
#[allow(clippy::needless_range_loop)] // index-form DP transitions read clearer
pub fn constrained_distance_to_hk(blocks: &[Block], k: usize, mass_units: usize) -> Result<f64> {
    if blocks.is_empty() {
        return Err(HistoError::InvalidParameter {
            name: "blocks",
            reason: "no blocks".into(),
        });
    }
    if k == 0 || mass_units == 0 {
        return Err(HistoError::InvalidParameter {
            name: "k/mass_units",
            reason: "k and mass_units must be positive".into(),
        });
    }
    let b = blocks.len();
    let k = k.min(b);
    let delta = 1.0 / mass_units as f64;

    // cost_of(a, e, mu): L1 error on counted blocks a..=e if covered by one
    // piece of total mass mu (level mu / width).
    let widths: Vec<f64> = blocks.iter().map(|bl| bl.width as f64).collect();
    let mut prefix_width = vec![0.0];
    for &w in &widths {
        prefix_width.push(prefix_width.last().unwrap() + w);
    }
    let seg_width = |a: usize, e: usize| prefix_width[e + 1] - prefix_width[a];
    let cost_of = |a: usize, e: usize, mass: f64| -> f64 {
        let c = mass / seg_width(a, e);
        blocks[a..=e]
            .iter()
            .filter(|bl| bl.counted)
            .map(|bl| (bl.level - c).abs() * bl.width as f64)
            .sum()
    };

    // prev[e][q]: minimal cost covering blocks 0..=e with the pieces so far
    // using exactly q mass units. Two rolling piece-layers only.
    let mut prev = vec![vec![f64::INFINITY; mass_units + 1]; b];
    for e in 0..b {
        for q in 0..=mass_units {
            prev[e][q] = cost_of(0, e, q as f64 * delta);
        }
    }
    let mut cur = prev.clone();
    for _piece in 1..k {
        if prev[b - 1][mass_units] <= 0.0 {
            break; // already perfect; more pieces cannot improve
        }
        cur.clone_from(&prev); // <= p+1 pieces includes <= p pieces
        let mut improved = false;
        for e in 1..b {
            for q in 0..=mass_units {
                // last piece spans start..=e with t units
                for start in 1..=e {
                    for t in 0..=q {
                        let cand = prev[start - 1][q - t] + cost_of(start, e, t as f64 * delta);
                        if cand < cur[e][q] {
                            cur[e][q] = cand;
                            improved = true;
                        }
                    }
                }
            }
        }
        if !improved {
            break; // converged: further layers are identical
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    Ok(prev[b - 1][mass_units] / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::total_variation;

    fn d(v: &[f64]) -> Distribution {
        Distribution::new(v.to_vec()).unwrap()
    }

    #[test]
    fn fit_is_exact_for_true_khistograms() {
        let x = d(&[0.1, 0.1, 0.3, 0.3, 0.2]);
        let blocks = blocks_from_distribution(&x);
        let fit = best_kpiece_fit(&blocks, 3).unwrap();
        assert!(fit.l1_cost < 1e-12);
        assert_eq!(fit.piece_starts, vec![0, 2, 4]);
        // With k = 2 the cost must be positive.
        let fit2 = best_kpiece_fit(&blocks, 2).unwrap();
        assert!(fit2.l1_cost > 0.0);
    }

    #[test]
    fn fit_matches_brute_force_small() {
        // Brute force over all partitions into <= k pieces with per-piece
        // median levels; n = 7, k = 3.
        let x = d(&[0.05, 0.25, 0.05, 0.25, 0.05, 0.25, 0.10]);
        let blocks = blocks_from_distribution(&x);
        for k in 1..=4usize {
            let fit = best_kpiece_fit(&blocks, k).unwrap();
            let brute = brute_force_kpiece(x.pmf(), k);
            assert!(
                (fit.l1_cost - brute).abs() < 1e-10,
                "k = {k}: dp {} vs brute {}",
                fit.l1_cost,
                brute
            );
        }
    }

    /// Brute force: all ways to cut [0, n) into <= k pieces, median level
    /// per piece.
    fn brute_force_kpiece(v: &[f64], k: usize) -> f64 {
        fn rec(v: &[f64], pieces_left: usize) -> f64 {
            if v.is_empty() {
                return 0.0;
            }
            if pieces_left == 1 {
                return piece_cost(v);
            }
            let mut best = f64::INFINITY;
            for cut in 1..=v.len() {
                let head = piece_cost(&v[..cut]);
                let tail = if cut == v.len() {
                    0.0
                } else {
                    rec(&v[cut..], pieces_left - 1)
                };
                best = best.min(head + tail);
            }
            best
        }
        fn piece_cost(v: &[f64]) -> f64 {
            let mut s: Vec<f64> = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let med = s[(s.len() - 1) / 2];
            v.iter().map(|&x| (x - med).abs()).sum()
        }
        rec(v, k)
    }

    #[test]
    fn uncounted_blocks_are_free() {
        // Middle block is wildly off but not counted; a 1-piece fit should
        // have zero cost.
        let blocks = vec![
            Block::counted(2, 0.1),
            Block {
                width: 2,
                level: 0.9,
                counted: false,
            },
            Block::counted(2, 0.1),
        ];
        let fit = best_kpiece_fit(&blocks, 1).unwrap();
        assert!(fit.l1_cost < 1e-12);
        assert!((fit.piece_levels[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bounds_bracket_and_relate() {
        let x = d(&[0.3, 0.05, 0.3, 0.05, 0.3]);
        for k in 1..=5usize {
            let b = distance_to_hk_bounds(&x, k).unwrap();
            assert!(b.lower <= b.upper + 1e-12, "k = {k}");
            assert!(b.upper <= 2.0 * b.lower + 1e-9, "k = {k}: factor-2 bound");
            assert!(b.witness.minimal_pieces() <= k);
            // witness upper bound is a real TV distance
            let w = b.witness.to_distribution().unwrap();
            let tv = total_variation(&x, &w).unwrap();
            assert!((tv - b.upper).abs() < 1e-10);
        }
    }

    #[test]
    fn bounds_zero_for_members() {
        let x = d(&[0.2, 0.2, 0.2, 0.2, 0.2]);
        let b = distance_to_hk_bounds(&x, 1).unwrap();
        assert!(b.lower < 1e-12 && b.upper < 1e-12);
        let y = d(&[0.4, 0.4, 0.05, 0.05, 0.1]);
        let b = distance_to_hk_bounds(&y, 3).unwrap();
        assert!(b.upper < 1e-10);
    }

    #[test]
    fn bounds_decrease_in_k() {
        let x = d(&[0.25, 0.05, 0.2, 0.1, 0.15, 0.1, 0.1, 0.05]);
        let mut prev = f64::INFINITY;
        for k in 1..=8 {
            let b = distance_to_hk_bounds(&x, k).unwrap();
            assert!(b.lower <= prev + 1e-12, "lower bound must shrink with k");
            prev = b.lower;
        }
        // Enough pieces => distance zero.
        let b = distance_to_hk_bounds(&x, 8).unwrap();
        assert!(b.upper < 1e-12);
    }

    #[test]
    fn check_close_accepts_members_rejects_far() {
        // Build a 6-flat histogram that IS a 2-histogram.
        let p = Partition::from_starts(12, &[0, 2, 4, 6, 8, 10]).unwrap();
        let h = KHistogram::new(p.clone(), vec![1.0 / 12.0; 6]).unwrap();
        // All levels equal: it's a 1-histogram.
        assert!(check_close_to_hk(&h, &[true; 6], 1, 1e-9).unwrap());

        // An alternating histogram far from H_2.
        let h2 = KHistogram::new(p, vec![0.15, 0.02, 0.15, 0.02, 0.15, 0.01]).unwrap();
        assert!(!check_close_to_hk(&h2, &[true; 6], 2, 0.05).unwrap());
        // ... but trivially close to H_6.
        assert!(check_close_to_hk(&h2, &[true; 6], 6, 1e-9).unwrap());
    }

    #[test]
    fn check_ignores_discarded_intervals() {
        let p = Partition::from_starts(12, &[0, 2, 4, 6, 8, 10]).unwrap();
        // Interval 2 is an outlier but discarded.
        let h = KHistogram::new(p, vec![0.08, 0.08, 0.18, 0.08, 0.08, 0.0]).unwrap();
        let mask = [true, true, false, true, true, true];
        // Outside the discarded interval the histogram is 2-flat (0.08 and
        // 0.0 levels), so the check passes for k = 2 at tiny threshold.
        assert!(check_close_to_hk(&h, &mask, 2, 1e-9).unwrap());
        // Counting everything it must fail at that threshold for k = 2.
        assert!(!check_close_to_hk(&h, &[true; 6], 2, 1e-9).unwrap());
    }

    #[test]
    fn constrained_dp_matches_relaxation_when_mass_free() {
        // When the optimal unconstrained fit happens to have mass ~1, the
        // constrained DP should be close to the relaxation.
        let x = d(&[0.1, 0.1, 0.3, 0.3, 0.2]);
        let blocks = blocks_from_distribution(&x);
        let relaxed = best_kpiece_fit(&blocks, 3).unwrap().l1_cost / 2.0;
        let constrained = constrained_distance_to_hk(&blocks, 3, 200).unwrap();
        assert!(constrained + 1e-9 >= relaxed);
        assert!(constrained <= relaxed + 3.0 / 200.0 + 1e-9);
    }

    #[test]
    fn constrained_dp_is_between_bounds() {
        let x = d(&[0.35, 0.02, 0.33, 0.02, 0.28]);
        for k in 1..=3 {
            let b = distance_to_hk_bounds(&x, k).unwrap();
            let blocks = blocks_from_distribution(&x);
            let c = constrained_distance_to_hk(&blocks, k, 400).unwrap();
            let slack = k as f64 / 400.0 + 1e-9;
            assert!(
                c + slack >= b.lower && c <= b.upper + slack,
                "k = {k}: {} not in [{}, {}] (+/- {slack})",
                c,
                b.lower,
                b.upper
            );
        }
    }

    #[test]
    fn median_cost_structure_is_correct() {
        let mut mc = MedianCost::new();
        mc.insert(1.0, 1.0);
        assert_eq!(mc.cost(), 0.0);
        mc.insert(3.0, 1.0);
        // Optimal cost for {1,3} is 2 (any c in [1,3]).
        assert!((mc.cost() - 2.0).abs() < 1e-12);
        mc.insert(10.0, 1.0);
        // Median 3: |1-3| + |10-3| = 9.
        assert!((mc.cost() - 9.0).abs() < 1e-12);
        // Weighted: heavy weight drags the median.
        let mut mc = MedianCost::new();
        mc.insert(0.0, 10.0);
        mc.insert(5.0, 1.0);
        assert!((mc.median() - 0.0).abs() < 1e-12);
        assert!((mc.cost() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_matches_median_cost_on_all_windows() {
        // Exhaustive window check of the Fenwick oracle against the
        // two-heap accumulator, with ties, zero widths, and uncounted
        // blocks in the mix.
        let blocks = vec![
            Block::counted(2, 0.3),
            Block::counted(1, 0.1),
            Block {
                width: 3,
                level: 0.7,
                counted: false,
            },
            Block::counted(0, 0.9),
            Block::counted(4, 0.1),
            Block::counted(2, 0.3),
            Block::counted(1, 0.0),
        ];
        let idx = LevelIndex::new(&blocks);
        let mut oracle = SegCostOracle::new(&blocks, &idx);
        for a in 0..blocks.len() {
            for e in a..blocks.len() {
                let mut mc = MedianCost::new();
                for bl in &blocks[a..=e] {
                    if bl.counted {
                        mc.insert(bl.level, bl.width as f64);
                    }
                }
                assert!(
                    (oracle.cost(a, e) - mc.cost()).abs() < 1e-14,
                    "cost mismatch on window [{a}, {e}]"
                );
                assert_eq!(
                    oracle.level(a, e),
                    mc.median(),
                    "median mismatch on window [{a}, {e}]"
                );
            }
        }
    }

    #[test]
    fn monge_counterexample_documented() {
        // The weighted-l1 median cost on positional windows violates the
        // concave-Monge (quadrangle) inequality, so pure D&C argmin
        // splitting would be inexact — this instance certifies the claim
        // (see module docs for why the engine stays exact regardless).
        let vals = [0.0, 0.3, 0.2917, 0.3, 0.6907];
        let wts = [2.0, 7.0, 2.0, 7.0, 7.0];
        let cost = |a: usize, e: usize| {
            let mut mc = MedianCost::new();
            for i in a..=e {
                mc.insert(vals[i], wts[i]);
            }
            mc.cost()
        };
        // Quadrangle inequality would demand
        // C(0,2) + C(2,3) <= C(0,3) + C(2,2); it fails here.
        assert!(
            cost(0, 2) + cost(2, 3) > cost(0, 3) + cost(2, 2) + 1e-6,
            "expected a quadrangle-inequality violation"
        );
        // The engine remains exact on the same data.
        let blocks: Vec<Block> = vals
            .iter()
            .zip(&wts)
            .map(|(&v, &w)| Block::counted(w as usize, v))
            .collect();
        for k in 1..=4 {
            let fit = best_kpiece_fit(&blocks, k).unwrap();
            let reference = best_kpiece_fit_reference(&blocks, k).unwrap();
            assert!((fit.l1_cost - reference.l1_cost).abs() < 1e-12, "k = {k}");
            let cost_only = best_kpiece_fit_cost(&blocks, k).unwrap();
            assert!((cost_only - reference.l1_cost).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn errors_on_bad_parameters() {
        let x = d(&[0.5, 0.5]);
        let blocks = blocks_from_distribution(&x);
        assert!(best_kpiece_fit(&blocks, 0).is_err());
        assert!(best_kpiece_fit(&[], 1).is_err());
        assert!(best_kpiece_fit_cost(&blocks, 0).is_err());
        assert!(best_kpiece_fit_cost(&[], 1).is_err());
        assert!(best_kpiece_fit_reference(&blocks, 0).is_err());
        assert!(constrained_distance_to_hk(&blocks, 1, 0).is_err());
    }
}
