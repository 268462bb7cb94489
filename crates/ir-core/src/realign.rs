//! Per-read realignment decisions (`Reads_Realignments`, Algorithm 2).

use serde::{Deserialize, Serialize};

use crate::grid::MinWhdGrid;

/// The realignment decision for one read.
///
/// Mirrors the accelerator's two output buffers (paper Figure 6): one
/// "realign?" flag byte and one 4-byte new position per read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReadOutcome {
    realign: bool,
    new_offset: usize,
    new_pos: u64,
}

impl ReadOutcome {
    /// Reassembles an outcome from its wire-format parts, as decoded from
    /// the accelerator's output buffers (one flag byte plus one position
    /// word per read).
    pub fn from_parts(realign: bool, new_offset: usize, new_pos: u64) -> Self {
        ReadOutcome {
            realign,
            new_offset,
            new_pos,
        }
    }

    /// Decomposes the outcome back into its wire-format parts — the exact
    /// inverse of [`Self::from_parts`], including the offset/position
    /// words of non-realigned reads (which the accessor pair below hides
    /// behind `Option`). Re-encoders (result digests, for one) need the raw
    /// words to round-trip bit-exactly.
    pub fn into_parts(self) -> (bool, usize, u64) {
        (self.realign, self.new_offset, self.new_pos)
    }

    /// Whether this read's alignment is updated.
    pub fn realigned(&self) -> bool {
        self.realign
    }

    /// The new target-relative offset, if realigned.
    pub fn new_offset(&self) -> Option<usize> {
        self.realign.then_some(self.new_offset)
    }

    /// The new absolute position (`offset + target_start_pos`), if
    /// realigned (Algorithm 2, line 25).
    pub fn new_pos(&self) -> Option<u64> {
        self.realign.then_some(self.new_pos)
    }
}

/// Computes the per-read outcomes for the picked consensus `best`.
///
/// A read is realigned iff the best consensus's minimum WHD is **strictly**
/// smaller than the reference's (Algorithm 2, line 22); its new position is
/// the minimizing offset plus the target start position.
///
/// # Panics
///
/// Panics if `best >= grid.num_consensuses()`.
pub fn realign_reads(grid: &MinWhdGrid, best: usize, target_start_pos: u64) -> Vec<ReadOutcome> {
    assert!(
        best < grid.num_consensuses(),
        "best consensus index out of range"
    );
    (0..grid.num_reads())
        .map(|j| {
            let reference = grid.get(0, j);
            let picked = grid.get(best, j);
            let realign = best != 0 && picked.whd < reference.whd;
            ReadOutcome {
                realign,
                new_offset: picked.offset,
                new_pos: picked.offset as u64 + target_start_pos,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpCounts;
    use ir_genome::{Qual, Read, RealignmentTarget};

    fn figure4_grid() -> MinWhdGrid {
        let target = RealignmentTarget::builder(20)
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
            .unwrap();
        let mut ops = OpCounts::default();
        MinWhdGrid::compute(&target, true, &mut ops)
    }

    #[test]
    fn figure4_outcomes() {
        let outcomes = realign_reads(&figure4_grid(), 1, 20);
        // Paper Figure 4, step 5: read 0 updates (0 < 30), read 1 does not
        // (20 = 20).
        assert!(outcomes[0].realigned());
        assert_eq!(outcomes[0].new_offset(), Some(3));
        assert_eq!(outcomes[0].new_pos(), Some(23));
        assert!(!outcomes[1].realigned());
        assert_eq!(outcomes[1].new_pos(), None);
    }

    #[test]
    fn equal_whd_does_not_realign() {
        let outcomes = realign_reads(&figure4_grid(), 1, 0);
        assert!(
            !outcomes[1].realigned(),
            "strictly-smaller rule (20 = 20 keeps alignment)"
        );
    }

    #[test]
    fn best_zero_realigns_nothing() {
        let outcomes = realign_reads(&figure4_grid(), 0, 20);
        assert!(outcomes.iter().all(|o| !o.realigned()));
    }

    #[test]
    fn new_pos_adds_target_start() {
        let outcomes = realign_reads(&figure4_grid(), 1, 1_000_000);
        assert_eq!(outcomes[0].new_pos(), Some(1_000_003));
    }

    #[test]
    #[should_panic(expected = "best consensus index out of range")]
    fn panics_on_bad_best() {
        let _ = realign_reads(&figure4_grid(), 9, 0);
    }
}
