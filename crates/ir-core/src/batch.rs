//! Structure-of-arrays candidate sweep: one read against *all* of a
//! target's consensus candidates in a single pass.
//!
//! The per-pair scalar reference ([`crate::calc_whd_bounded`]) re-derives
//! everything — window fetches, base compares, score lookups — for every
//! (consensus, read) pair. The batch layout does that work once per
//! target instead:
//!
//! - [`CandidateBlock`] transposes every candidate consensus into one
//!   contiguous code buffer at a common stride, each row zero-padded so
//!   any sliding window a sweep can ask for is in-bounds (`0` is not a
//!   base code, so padding can never fake a match against a real base).
//! - [`SweepRead`] prepares a read once — byte codes plus its quality
//!   scores pre-broadcast into a zero-padded lane array — and is then
//!   swept against every candidate and offset with no per-pair setup.
//!
//! [`CandidateBlock::sweep`] produces one grid column per call on the
//! same kernel-side offset sweep the HDC model uses: with pruning,
//! [`crate::kernel::serial_sweep`] finds each offset's exact stop base
//! and derives every [`OpCounts`] field from it (visited bases, score
//! accumulations up to the stop base, pruned offsets); without it, each
//! offset folds the whole read with [`crate::kernel::fold_whd_counted`].
//! Scores are non-negative, so the crossing base — and therefore every
//! count — is identical to the scalar reference's; the proptests below
//! pin that bit-for-bit.

use ir_genome::{base_code, Base, Qual, RealignmentTarget};

use crate::grid::MinWhd;
use crate::kernel::{self, KernelKind};
use crate::stats::OpCounts;

/// Row padding (and lane-array rounding) in bases: one full AVX-512
/// vector, so the widest kernel never needs a tail inside a padded row.
pub const ROW_PAD: usize = 64;

/// Every consensus candidate of one target, transposed into a contiguous
/// lane-major code buffer (structure of arrays) at a common stride.
///
/// # Example
///
/// ```
/// use ir_core::{CandidateBlock, KernelKind, OpCounts, SweepRead};
/// use ir_genome::{Qual, Read, RealignmentTarget};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = RealignmentTarget::builder(20)
///     .reference("CCTTAGA".parse()?)
///     .consensus("ACCTGAA".parse()?)
///     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
///     .build()?;
///
/// let block = CandidateBlock::from_target(&target);
/// let read = SweepRead::new(target.read(0).bases().bases(), target.read(0).quals());
/// let mut ops = OpCounts::default();
/// let col = block.sweep(&read, true, KernelKind::Scalar, &mut ops);
/// assert_eq!(col[0].whd, 30); // vs the reference (Fig 4)
/// assert_eq!(col[1].whd, 0);  // exact match on consensus 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateBlock {
    /// `lens.len()` rows of `stride` bytes; row `i` holds candidate `i`'s
    /// codes in `[..lens[i]]` and zero padding after.
    codes: Vec<u8>,
    stride: usize,
    lens: Vec<usize>,
}

impl CandidateBlock {
    fn from_code_rows(rows: Vec<Vec<u8>>) -> Self {
        let max_len = rows.iter().map(Vec::len).max().unwrap_or(0);
        // Large enough that `row[k..k + padded_read_len]` is in bounds for
        // every valid offset: `k + n_pad ≤ len + (ROW_PAD - 1) < stride`.
        let stride = (max_len + ROW_PAD).next_multiple_of(ROW_PAD);
        let mut codes = vec![0u8; rows.len() * stride];
        let mut lens = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            codes[i * stride..i * stride + row.len()].copy_from_slice(row);
            lens.push(row.len());
        }
        CandidateBlock {
            codes,
            stride,
            lens,
        }
    }

    /// Builds the block from raw base rows (ragged lengths are fine).
    pub fn from_bases_rows(rows: &[&[Base]]) -> Self {
        Self::from_code_rows(
            rows.iter()
                .map(|row| row.iter().map(|&b| base_code(b)).collect())
                .collect(),
        )
    }

    /// Builds the block over all of `target`'s consensuses (row 0 is the
    /// reference, like [`crate::MinWhdGrid`]).
    pub fn from_target(target: &RealignmentTarget) -> Self {
        Self::from_code_rows(
            (0..target.num_consensuses())
                .map(|i| {
                    target
                        .consensus(i)
                        .bases()
                        .iter()
                        .map(|&b| base_code(b))
                        .collect()
                })
                .collect(),
        )
    }

    /// Number of candidate rows.
    pub fn num_candidates(&self) -> usize {
        self.lens.len()
    }

    /// Returns `true` if the block holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Length (in bases) of candidate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn len(&self, i: usize) -> usize {
        self.lens[i]
    }

    /// Candidate `i`'s codes, exactly `len(i)` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.codes[i * self.stride..i * self.stride + self.lens[i]]
    }

    /// Candidate `i`'s full padded row (`len(i)` codes followed by zero
    /// padding) — windows up to `ROW_PAD - 1` bytes past the candidate
    /// end stay in bounds, which is what the padded dense folds rely on.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_padded(&self, i: usize) -> &[u8] {
        assert!(i < self.lens.len(), "candidate index out of range");
        &self.codes[i * self.stride..(i + 1) * self.stride]
    }

    /// Sweeps `read` against every candidate (Algorithm 1's inner loops
    /// for one grid column), returning the per-candidate minimum WHD and
    /// accumulating the exact scalar-reference [`OpCounts`].
    ///
    /// With `pruning`, each offset's evaluation is bounded by the
    /// candidate's running minimum and stops at the exact base the
    /// scalar scan stops at; the result and every count are
    /// bit-identical to the per-pair [`crate::calc_whd_bounded`] loop.
    ///
    /// # Panics
    ///
    /// Panics if the read is longer than any candidate.
    pub fn sweep(
        &self,
        read: &SweepRead,
        pruning: bool,
        kind: KernelKind,
        ops: &mut OpCounts,
    ) -> Vec<MinWhd> {
        let n = read.len();
        let codes = read.codes();
        let scores = read.scores();
        (0..self.num_candidates())
            .map(|i| {
                let cons_len = self.lens[i];
                assert!(n <= cons_len, "read longer than consensus");
                let row = self.row(i);
                let max_k = cons_len - n;
                let evaluations = max_k as u64 + 1;
                ops.whd_evaluations += evaluations;
                if pruning {
                    let sweep = kernel::serial_sweep(kind, row, cons_len, codes, scores);
                    ops.base_comparisons += sweep.visited;
                    ops.qual_accumulations += sweep.accumulations;
                    ops.whd_pruned += sweep.offsets_pruned;
                    // Completed offsets visit all `n` bases, so the
                    // shortfall is exactly the pruned offsets' saving.
                    ops.comparisons_saved += evaluations * n as u64 - sweep.visited;
                    return MinWhd {
                        whd: sweep.min_whd,
                        offset: sweep.min_offset,
                    };
                }
                let mut min = MinWhd {
                    whd: u64::MAX,
                    offset: 0,
                };
                for k in 0..=max_k {
                    let (whd, count) =
                        kernel::fold_whd_counted(kind, &row[k..k + n], codes, scores);
                    ops.qual_accumulations += count;
                    if whd < min.whd {
                        min = MinWhd { whd, offset: k };
                    }
                }
                ops.base_comparisons += evaluations * n as u64;
                debug_assert_ne!(min.whd, u64::MAX, "at least offset 0 completes");
                min
            })
            .collect()
    }
}

/// One read prepared for sweeping: byte codes and quality scores copied
/// into lane arrays zero-padded to a [`ROW_PAD`] multiple, so dense folds
/// can run whole vectors with no tail (padding lanes carry score `0` and
/// therefore contribute nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRead {
    codes: Vec<u8>,
    scores: Vec<u8>,
    len: usize,
}

impl SweepRead {
    fn from_parts(mut codes: Vec<u8>, quals: &Qual) -> Self {
        let len = codes.len();
        let scores = quals.scores();
        assert!(scores.len() >= len, "missing quality scores");
        let padded = len.next_multiple_of(ROW_PAD);
        codes.resize(padded, 0);
        let mut lane_scores = vec![0u8; padded];
        lane_scores[..len].copy_from_slice(&scores[..len]);
        SweepRead {
            codes,
            scores: lane_scores,
            len,
        }
    }

    /// Prepares a read from raw bases and its quality scores.
    ///
    /// # Panics
    ///
    /// Panics if `quals` has fewer scores than `bases`.
    pub fn new(bases: &[Base], quals: &Qual) -> Self {
        Self::from_parts(bases.iter().map(|&b| base_code(b)).collect(), quals)
    }

    /// Number of real bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the read has no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The read's codes, exactly `len` bytes.
    pub fn codes(&self) -> &[u8] {
        &self.codes[..self.len]
    }

    /// The read's quality scores, exactly `len` bytes.
    pub fn scores(&self) -> &[u8] {
        &self.scores[..self.len]
    }

    /// Codes padded with zeros to the lane-array length.
    pub fn codes_padded(&self) -> &[u8] {
        &self.codes
    }

    /// Scores padded with zeros to the lane-array length — the padding
    /// lanes are what make full-vector folds exact past the read end.
    pub fn scores_padded(&self) -> &[u8] {
        &self.scores
    }

    /// The lane-array length (`len` rounded up to a [`ROW_PAD`] multiple).
    pub fn padded_len(&self) -> usize {
        self.codes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::whd::calc_whd_bounded;
    use ir_genome::Sequence;

    fn seq(s: &str) -> Sequence {
        s.parse().unwrap()
    }

    /// The per-pair reference loop `sweep` must reproduce exactly.
    fn reference_column(
        cands: &[Sequence],
        read: &Sequence,
        quals: &Qual,
        pruning: bool,
        ops: &mut OpCounts,
    ) -> Vec<MinWhd> {
        cands
            .iter()
            .map(|cons| {
                let max_k = cons.len() - read.len();
                let mut min = MinWhd {
                    whd: u64::MAX,
                    offset: 0,
                };
                for k in 0..=max_k {
                    let bound = if pruning { min.whd } else { u64::MAX };
                    ops.whd_evaluations += 1;
                    let out = calc_whd_bounded(cons, read, quals, k, bound);
                    ops.base_comparisons += out.comparisons;
                    ops.qual_accumulations += out.accumulations;
                    if out.pruned {
                        ops.whd_pruned += 1;
                        ops.comparisons_saved += read.len() as u64 - out.comparisons;
                    } else if out.whd < min.whd {
                        min = MinWhd {
                            whd: out.whd,
                            offset: k,
                        };
                    }
                }
                min
            })
            .collect()
    }

    #[test]
    fn figure4_column_matches_per_pair_kernel() {
        let cands = [seq("CCTTAGA"), seq("ACCTGAA"), seq("TCTGCCT")];
        let read = seq("TGAA");
        let quals = Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap();
        let rows: Vec<&[Base]> = cands.iter().map(|c| c.bases()).collect();
        let block = CandidateBlock::from_bases_rows(&rows);
        let sweep_read = SweepRead::new(read.bases(), &quals);
        for pruning in [false, true] {
            for kind in KernelKind::available() {
                let mut ops = OpCounts::default();
                let col = block.sweep(&sweep_read, pruning, kind, &mut ops);
                let mut want_ops = OpCounts::default();
                let want = reference_column(&cands, &read, &quals, pruning, &mut want_ops);
                assert_eq!(col, want, "{kind} pruning={pruning}");
                assert_eq!(ops, want_ops, "{kind} pruning={pruning} ops");
            }
        }
    }

    #[test]
    fn ragged_candidates_and_zero_length_read() {
        // Ragged rows: lengths 4, 21, 64, 70 — word-boundary straddles.
        let cands = [
            seq("TGAA"),
            seq("ACGTNACGTNACGTNACGTNA"),
            seq(&"CGTA".repeat(16)),
            seq(&"TTGCANN".repeat(10)),
        ];
        let rows: Vec<&[Base]> = cands.iter().map(|c| c.bases()).collect();
        let block = CandidateBlock::from_bases_rows(&rows);
        assert_eq!(block.num_candidates(), 4);
        assert_eq!(block.len(3), 70);

        // A zero-length read sweeps every offset of every candidate and
        // must produce min 0 at offset 0 with zero comparisons.
        let empty = SweepRead::new(&[], &Qual::uniform(0, 0).unwrap());
        assert!(empty.is_empty());
        for kind in KernelKind::available() {
            let mut ops = OpCounts::default();
            let col = block.sweep(&empty, true, kind, &mut ops);
            assert!(col.iter().all(|m| m == &MinWhd { whd: 0, offset: 0 }));
            assert_eq!(ops.base_comparisons, 0, "{kind}");
            assert_eq!(
                ops.whd_evaluations,
                (4 + 1) + (21 + 1) + (64 + 1) + (70 + 1)
            );
            assert_eq!(ops.whd_pruned, 0, "{kind}");
        }

        // A real read against the ragged block, cross-checked per pair.
        let read = seq("TGCA");
        let quals = Qual::from_raw_scores(&[7, 23, 45, 11]).unwrap();
        let sweep_read = SweepRead::new(read.bases(), &quals);
        for kind in KernelKind::available() {
            let mut ops = OpCounts::default();
            let col = block.sweep(&sweep_read, true, kind, &mut ops);
            let mut want_ops = OpCounts::default();
            let want = reference_column(&cands, &read, &quals, true, &mut want_ops);
            assert_eq!(col, want, "{kind}");
            assert_eq!(ops, want_ops, "{kind}");
        }
    }

    #[test]
    fn padding_lane_invariants() {
        let block = CandidateBlock::from_bases_rows(&[seq("ACGT").bases()]);
        let padded = block.row_padded(0);
        assert!(padded.len() >= 4 + ROW_PAD - 1, "window slack available");
        assert!(padded[4..].iter().all(|&b| b == 0), "padding is the 0 code");

        let read = SweepRead::new(seq("ACG").bases(), &Qual::uniform(40, 3).unwrap());
        assert_eq!(read.padded_len(), ROW_PAD);
        assert!(read.scores_padded()[3..].iter().all(|&s| s == 0));
        assert_eq!(read.codes(), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "read longer than consensus")]
    fn sweep_rejects_long_read() {
        let block = CandidateBlock::from_bases_rows(&[seq("ACG").bases()]);
        let read = SweepRead::new(seq("ACGT").bases(), &Qual::uniform(1, 4).unwrap());
        let mut ops = OpCounts::default();
        let _ = block.sweep(&read, true, KernelKind::Scalar, &mut ops);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        fn base_strategy() -> impl Strategy<Value = u8> {
            prop_oneof![
                4 => prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
                1 => Just(b'N'),
            ]
        }

        prop_compose! {
            /// Up to 4 ragged candidates plus a read (possibly empty) no
            /// longer than the shortest candidate.
            fn sweep_inputs()(
                num_cands in 1usize..=4,
                read_len in 0usize..=70,
                slacks in prop::collection::vec(0usize..=40, 4),
                cand_raw in prop::collection::vec(base_strategy(), 4 * 110),
                read_raw in prop::collection::vec(base_strategy(), 70),
                quals_raw in prop::collection::vec(0u8..=93, 70),
            ) -> (Vec<Sequence>, Sequence, Qual) {
                let cands: Vec<Sequence> = (0..num_cands)
                    .map(|i| {
                        let len = read_len + slacks[i];
                        Sequence::from_ascii(&cand_raw[i * 110..i * 110 + len]).unwrap()
                    })
                    .collect();
                let read = Sequence::from_ascii(&read_raw[..read_len]).unwrap();
                let quals = Qual::from_raw_scores(&quals_raw[..read_len]).unwrap();
                (cands, read, quals)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases_env(128))]

            /// Batch sweep ≡ per-pair bounded kernel, for every available
            /// kernel, both pruning modes, ragged candidate counts and
            /// zero-length reads — results and `OpCounts` alike.
            #[test]
            fn sweep_equals_per_pair(
                (cands, read, quals) in sweep_inputs(),
                pruning in any::<bool>(),
            ) {
                let rows: Vec<&[Base]> = cands.iter().map(|c| c.bases()).collect();
                let block = CandidateBlock::from_bases_rows(&rows);
                let sweep_read = SweepRead::new(read.bases(), &quals);
                let mut want_ops = OpCounts::default();
                let want = reference_column(&cands, &read, &quals, pruning, &mut want_ops);
                for kind in KernelKind::available() {
                    let mut ops = OpCounts::default();
                    let col = block.sweep(&sweep_read, pruning, kind, &mut ops);
                    prop_assert_eq!(&col, &want, "{} column", kind);
                    prop_assert_eq!(ops, want_ops, "{} ops", kind);
                }
            }
        }
    }
}
