//! The minimum-WHD grid (`Min_WHD`, Algorithm 1).
//!
//! [`MinWhdGrid::compute`] fills the grid one column (read) at a time
//! through the block sweep the accelerator model's Hamming Distance
//! Calculator runs too ([`crate::batch::sweep_block`]), so the software
//! realigner and the simulated hardware share one implementation of
//! Algorithm 1; the scalar [`crate::calc_whd_bounded`] loop is the
//! reference both are tested against.

use serde::{Deserialize, Serialize};

use ir_genome::RealignmentTarget;

use crate::batch::{CandidateBlock, SweepRead};
use crate::kernel::{self, KernelKind};
use crate::stats::OpCounts;

/// The minimum weighted Hamming distance of one (consensus, read) pair,
/// together with the offset `k` at which it occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MinWhd {
    /// The minimum weighted Hamming distance over all offsets.
    pub whd: u64,
    /// The (first) offset attaining the minimum.
    pub offset: usize,
}

/// The `NumConsensuses × NumReads` grid of minimum weighted Hamming
/// distances that Algorithm 1 produces and Algorithm 2 consumes.
///
/// Row 0 is the reference consensus. In hardware this grid is what the
/// Hamming Distance Calculator stage streams into the Consensus Selector's
/// `dist`/`pos` block-RAM buffers (paper Figure 5).
///
/// # Example
///
/// ```
/// use ir_genome::{Qual, Read, RealignmentTarget};
/// use ir_core::{MinWhdGrid, OpCounts};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = RealignmentTarget::builder(20)
///     .reference("CCTTAGA".parse()?)
///     .consensus("ACCTGAA".parse()?)
///     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
///     .build()?;
///
/// let mut ops = OpCounts::default();
/// let grid = MinWhdGrid::compute(&target, true, &mut ops);
/// assert_eq!(grid.get(0, 0).whd, 30); // read0 vs reference
/// assert_eq!(grid.get(1, 0).whd, 0);  // read0 matches consensus 1 exactly
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinWhdGrid {
    num_consensuses: usize,
    num_reads: usize,
    cells: Vec<MinWhd>,
}

impl MinWhdGrid {
    /// Runs Algorithm 1 over every (consensus, read) pair of `target`.
    ///
    /// With `pruning` enabled, each WHD evaluation is abandoned as soon as
    /// its running sum exceeds the pair's current minimum (paper §III-A
    /// "Computation Pruning"); the resulting grid is bit-identical to the
    /// unpruned one. `ops` accumulates the comparisons actually performed
    /// plus, when pruning, the comparisons saved.
    ///
    /// Internally the evaluations run on the batched structure-of-arrays
    /// engine ([`CandidateBlock`]): every consensus is transposed into
    /// one contiguous code block, each read is prepared once in one
    /// refilled [`SweepRead`], and one block sweep per read
    /// ([`CandidateBlock::sweep`]) produces a whole grid column on the
    /// runtime-dispatched SIMD kernels ([`crate::kernel::active`]),
    /// each alternative reusing the reference's work on the windows they
    /// share. Every kernel is bit-for-bit the scalar
    /// [`crate::calc_whd_bounded`] loop (same grid, same `OpCounts`);
    /// the equivalence is pinned by the differential proptests in
    /// [`crate::batch`].
    pub fn compute(target: &RealignmentTarget, pruning: bool, ops: &mut OpCounts) -> Self {
        Self::compute_with_kernel(target, pruning, kernel::active(), ops)
    }

    /// [`MinWhdGrid::compute`] on an explicitly chosen kernel — what the
    /// kernel-parity suites use to cross-check every [`KernelKind`] in
    /// one process.
    pub fn compute_with_kernel(
        target: &RealignmentTarget,
        pruning: bool,
        kind: KernelKind,
        ops: &mut OpCounts,
    ) -> Self {
        let num_consensuses = target.num_consensuses();
        let num_reads = target.num_reads();
        let block = CandidateBlock::from_target(target);
        let mut cells = vec![
            MinWhd {
                whd: u64::MAX,
                offset: 0
            };
            num_consensuses * num_reads
        ];
        let mut sweep_read = SweepRead::default();
        for j in 0..num_reads {
            let read = target.read(j);
            sweep_read.refill(read.bases().bases(), read.quals());
            let column = block.sweep(&sweep_read, pruning, kind, ops);
            for (i, min) in column.into_iter().enumerate() {
                cells[i * num_reads + j] = min;
            }
        }
        MinWhdGrid {
            num_consensuses,
            num_reads,
            cells,
        }
    }

    /// Assembles a grid from row-major cells (consensus-major order), as
    /// produced by an external implementation such as the FPGA simulator's
    /// Hamming Distance Calculator.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != num_consensuses * num_reads`.
    pub fn from_cells(num_consensuses: usize, num_reads: usize, cells: Vec<MinWhd>) -> Self {
        assert_eq!(
            cells.len(),
            num_consensuses * num_reads,
            "cell count must match grid dimensions"
        );
        MinWhdGrid {
            num_consensuses,
            num_reads,
            cells,
        }
    }

    /// Number of consensuses (rows), including the reference.
    pub fn num_consensuses(&self) -> usize {
        self.num_consensuses
    }

    /// Number of reads (columns).
    pub fn num_reads(&self) -> usize {
        self.num_reads
    }

    /// Returns the cell for consensus `i`, read `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, i: usize, j: usize) -> MinWhd {
        assert!(
            i < self.num_consensuses && j < self.num_reads,
            "grid index out of range"
        );
        self.cells[i * self.num_reads + j]
    }

    /// Iterates over one consensus row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[MinWhd] {
        assert!(i < self.num_consensuses, "grid row out of range");
        &self.cells[i * self.num_reads..(i + 1) * self.num_reads]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_genome::{Qual, Read};

    fn figure4_target() -> RealignmentTarget {
        RealignmentTarget::builder(20)
            .reference("CCTTAGA".parse().unwrap())
            .consensus("ACCTGAA".parse().unwrap())
            .consensus("TCTGCCT".parse().unwrap())
            .read(
                Read::new(
                    "r0",
                    "TGAA".parse().unwrap(),
                    Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
                    0,
                )
                .unwrap(),
            )
            .read(
                Read::new(
                    "r1",
                    "CCTC".parse().unwrap(),
                    Qual::from_raw_scores(&[10, 60, 30, 20]).unwrap(),
                    0,
                )
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn figure4_grid_values() {
        let target = figure4_target();
        let mut ops = OpCounts::default();
        let grid = MinWhdGrid::compute(&target, false, &mut ops);
        // Paper Figure 4, step 3 grid.
        assert_eq!(grid.get(0, 0), MinWhd { whd: 30, offset: 2 });
        assert_eq!(grid.get(0, 1), MinWhd { whd: 20, offset: 0 });
        assert_eq!(grid.get(1, 0), MinWhd { whd: 0, offset: 3 });
        assert_eq!(grid.get(1, 1), MinWhd { whd: 20, offset: 1 });
        assert_eq!(grid.get(2, 0).whd, 55);
        assert_eq!(grid.get(2, 1).whd, 30);
    }

    #[test]
    fn pruned_grid_is_identical() {
        let target = figure4_target();
        let mut naive_ops = OpCounts::default();
        let mut pruned_ops = OpCounts::default();
        let naive = MinWhdGrid::compute(&target, false, &mut naive_ops);
        let pruned = MinWhdGrid::compute(&target, true, &mut pruned_ops);
        assert_eq!(naive, pruned);
        assert!(pruned_ops.base_comparisons < naive_ops.base_comparisons);
        assert_eq!(
            pruned_ops.naive_comparisons(),
            naive_ops.base_comparisons,
            "saved + executed must equal the naive count"
        );
    }

    #[test]
    fn naive_comparison_count_matches_worst_case() {
        let target = figure4_target();
        let mut ops = OpCounts::default();
        let _ = MinWhdGrid::compute(&target, false, &mut ops);
        assert_eq!(
            ops.base_comparisons,
            target.shape().worst_case_comparisons()
        );
    }

    #[test]
    fn row_slicing() {
        let target = figure4_target();
        let mut ops = OpCounts::default();
        let grid = MinWhdGrid::compute(&target, false, &mut ops);
        assert_eq!(grid.row(1).len(), 2);
        assert_eq!(grid.row(1)[0], grid.get(1, 0));
    }

    #[test]
    #[should_panic(expected = "grid index out of range")]
    fn get_panics_out_of_range() {
        let target = figure4_target();
        let mut ops = OpCounts::default();
        let grid = MinWhdGrid::compute(&target, false, &mut ops);
        let _ = grid.get(3, 0);
    }

    #[test]
    fn equal_length_read_and_consensus_has_single_offset() {
        let target = RealignmentTarget::builder(0)
            .reference("ACGT".parse().unwrap())
            .read(
                Read::new(
                    "r",
                    "ACGA".parse().unwrap(),
                    Qual::uniform(7, 4).unwrap(),
                    0,
                )
                .unwrap(),
            )
            .build()
            .unwrap();
        let mut ops = OpCounts::default();
        let grid = MinWhdGrid::compute(&target, false, &mut ops);
        assert_eq!(grid.get(0, 0), MinWhd { whd: 7, offset: 0 });
        assert_eq!(ops.whd_evaluations, 1);
    }
}
