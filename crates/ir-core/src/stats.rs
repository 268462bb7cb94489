//! Operation counting for cost models and simulator validation.

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// Counts of the primitive operations performed while realigning targets.
///
/// The paper's performance analysis (§II-C) is built entirely on base
/// comparisons and quality-score accumulations — the accelerator performs
/// one of each per cycle per lane — so every algorithm entry point in this
/// crate threads an `OpCounts` through and the FPGA simulator is validated
/// against the same counters.
///
/// # Example
///
/// ```
/// use ir_core::OpCounts;
///
/// let mut total = OpCounts::default();
/// total += OpCounts { base_comparisons: 10, ..OpCounts::default() };
/// total += OpCounts { base_comparisons: 5, whd_pruned: 2, ..OpCounts::default() };
/// assert_eq!(total.base_comparisons, 15);
/// assert_eq!(total.whd_pruned, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct OpCounts {
    /// Base-vs-base comparisons executed (the inner loop of `Calc_WHD`).
    pub base_comparisons: u64,
    /// Weighted-Hamming-distance evaluations started (one per `(i, j, k)`
    /// triple reached).
    pub whd_evaluations: u64,
    /// WHD evaluations cut short by computation pruning.
    pub whd_pruned: u64,
    /// Base comparisons that pruning *skipped* relative to the naive
    /// algorithm (naive = `base_comparisons + comparisons_saved`).
    pub comparisons_saved: u64,
    /// Consensus-selector score updates (one per `(i, j)` pair).
    pub score_updates: u64,
}

impl OpCounts {
    /// Comparisons the naive (unpruned) algorithm would have executed.
    pub fn naive_comparisons(&self) -> u64 {
        self.base_comparisons + self.comparisons_saved
    }

    /// Fraction of naive comparisons eliminated by pruning, in `[0, 1]`.
    ///
    /// The paper reports pruning "eliminates > 50% of the computations" on
    /// its input set (§III-A).
    pub fn pruned_fraction(&self) -> f64 {
        let naive = self.naive_comparisons();
        if naive == 0 {
            0.0
        } else {
            self.comparisons_saved as f64 / naive as f64
        }
    }
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            base_comparisons: self.base_comparisons + rhs.base_comparisons,
            whd_evaluations: self.whd_evaluations + rhs.whd_evaluations,
            whd_pruned: self.whd_pruned + rhs.whd_pruned,
            comparisons_saved: self.comparisons_saved + rhs.comparisons_saved,
            score_updates: self.score_updates + rhs.score_updates,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for OpCounts {
    fn sum<I: Iterator<Item = OpCounts>>(iter: I) -> OpCounts {
        iter.fold(OpCounts::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_fieldwise() {
        let a = OpCounts {
            base_comparisons: 1,
            whd_evaluations: 3,
            whd_pruned: 4,
            comparisons_saved: 5,
            score_updates: 6,
        };
        let sum = a + a;
        assert_eq!(sum.base_comparisons, 2);
        assert_eq!(sum.whd_evaluations, 6);
        assert_eq!(sum.whd_pruned, 8);
        assert_eq!(sum.comparisons_saved, 10);
        assert_eq!(sum.score_updates, 12);
    }

    #[test]
    fn pruned_fraction_handles_zero() {
        assert_eq!(OpCounts::default().pruned_fraction(), 0.0);
    }

    #[test]
    fn pruned_fraction_is_saved_over_naive() {
        let c = OpCounts {
            base_comparisons: 25,
            comparisons_saved: 75,
            ..OpCounts::default()
        };
        assert_eq!(c.naive_comparisons(), 100);
        assert!((c.pruned_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sums_over_iterators() {
        let parts = vec![
            OpCounts {
                base_comparisons: 5,
                ..OpCounts::default()
            },
            OpCounts {
                base_comparisons: 7,
                ..OpCounts::default()
            },
        ];
        let total: OpCounts = parts.into_iter().sum();
        assert_eq!(total.base_comparisons, 12);
    }
}
