//! Structure-of-arrays candidate sweep: one read against *all* of a
//! target's consensus candidates in a single pass, and the one block
//! sweep of Algorithm 1 that both the software realigner
//! ([`crate::MinWhdGrid`]) and the accelerator model's Hamming Distance
//! Calculator run.
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
//! [`sweep_block`] sweeps a read against every row under one of two
//! [`SweepShape`]s — serial immediate prune, or dense — and hands over
//! each row's [`RowFold`]: its minimum WHD, the first offset holding it,
//! the offsets above the running minimum (under the serial shape exactly
//! the pruned ones) and the bases visited. Rows reuse the reference's
//! entries wherever their windows are the reference's (DESIGN.md §4f).
//! [`CandidateBlock::sweep`] turns the rows into one grid column and its
//! [`OpCounts`]; the proptests below pin both, every count included, to
//! the per-pair [`crate::calc_whd_bounded`] loop bit for bit.

use std::cell::RefCell;

use ir_genome::{base_code, Base, Qual, RealignmentTarget, Sequence};

use crate::grid::MinWhd;
use crate::kernel::{self, DenseSweep, KernelKind, PreparedRead, ReadWords, SerialRange};
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
    /// `shapes.len()` rows of `stride` bytes; row `i` holds candidate
    /// `i`'s codes in `[..shapes[i].len]` and zero padding after.
    codes: Vec<u8>,
    stride: usize,
    shapes: Vec<RowShape>,
}

/// One row's length and what it shares with row 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowShape {
    len: usize,
    /// The longest prefix shared with row 0.
    prefix: usize,
    /// The longest suffix shared with row 0.
    suffix: usize,
}

impl CandidateBlock {
    /// Transposes `rows` straight into the padded code buffer.
    fn from_rows<'a>(rows: impl ExactSizeIterator<Item = &'a [Base]> + Clone) -> Self {
        let mut shapes: Vec<RowShape> = rows
            .clone()
            .map(|row| RowShape {
                len: row.len(),
                prefix: 0,
                suffix: 0,
            })
            .collect();
        let max_len = shapes.iter().map(|s| s.len).max().unwrap_or(0);
        // Large enough that `row[k..k + padded_read_len]` is in bounds for
        // every valid offset: `k + n_pad ≤ len + (ROW_PAD - 1) < stride`.
        let stride = (max_len + ROW_PAD).next_multiple_of(ROW_PAD);
        let mut codes = vec![0u8; shapes.len() * stride];
        for (row, dst) in rows.zip(codes.chunks_exact_mut(stride)) {
            for (code, &b) in dst.iter_mut().zip(row) {
                *code = base_code(b);
            }
        }
        let reference = &codes[..shapes.first().map_or(0, |s| s.len)];
        for (row, shape) in codes.chunks_exact(stride).zip(&mut shapes) {
            let row = &row[..shape.len];
            let prefix = row.iter().zip(reference).take_while(|(a, b)| a == b);
            shape.prefix = prefix.count();
            let suffix = row.iter().rev().zip(reference.iter().rev());
            shape.suffix = suffix.take_while(|(a, b)| a == b).count();
        }
        CandidateBlock {
            codes,
            stride,
            shapes,
        }
    }

    /// Builds the block from raw base rows (ragged lengths are fine).
    pub fn from_bases_rows(rows: &[&[Base]]) -> Self {
        Self::from_rows(rows.iter().copied())
    }

    /// Builds the block over all of `target`'s consensuses (row 0 is the
    /// reference, like [`crate::MinWhdGrid`]).
    pub fn from_target(target: &RealignmentTarget) -> Self {
        Self::from_rows(target.consensuses().iter().map(Sequence::bases))
    }

    /// Number of candidate rows.
    pub fn num_candidates(&self) -> usize {
        self.shapes.len()
    }

    /// Returns `true` if the block holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Length (in bases) of candidate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn len(&self, i: usize) -> usize {
        self.shapes[i].len
    }

    /// The longest candidate's length (0 for an empty block).
    pub fn max_len(&self) -> usize {
        self.shapes.iter().map(|s| s.len).max().unwrap_or(0)
    }

    /// The lengths `(prefix, suffix)` of the longest prefix and the
    /// longest suffix candidate `i` shares with candidate 0 (the
    /// reference, for a block built [`from_target`](Self::from_target)).
    /// Each is at most the shorter row's length; the two may overlap. A
    /// window of candidate `i` inside the prefix holds the bases of
    /// candidate 0's window at the same offset, and one inside the
    /// suffix those of candidate 0's window `len(0) - len(i)` offsets on.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shared_with_reference(&self, i: usize) -> (usize, usize) {
        (self.shapes[i].prefix, self.shapes[i].suffix)
    }

    /// Candidate `i`'s codes, exactly `len(i)` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.codes[i * self.stride..i * self.stride + self.shapes[i].len]
    }

    /// Candidate `i`'s full padded row (`len(i)` codes followed by zero
    /// padding) — windows up to `ROW_PAD - 1` bytes past the candidate
    /// end stay in bounds, which is what the padded dense folds rely on.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_padded(&self, i: usize) -> &[u8] {
        assert!(i < self.shapes.len(), "candidate index out of range");
        &self.codes[i * self.stride..(i + 1) * self.stride]
    }

    /// Sweeps `read` against every candidate (Algorithm 1's inner loops
    /// for one grid column) through [`sweep_block`], returning the
    /// per-candidate minimum WHD and accumulating the exact
    /// scalar-reference [`OpCounts`].
    ///
    /// With `pruning` (the serial shape), each offset's evaluation is
    /// bounded by the candidate's running minimum and stops at the exact
    /// base the scalar scan stops at: `base_comparisons` gains the visited
    /// bases, `whd_pruned` the offsets above the running minimum, and
    /// `comparisons_saved` the shortfall from the naive count. The result
    /// and every count are bit-identical to the per-pair
    /// [`crate::calc_whd_bounded`] loop.
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
        let n = read.len() as u64;
        let shape = if pruning {
            SweepShape::Serial
        } else {
            SweepShape::Dense
        };
        let mut column = Vec::with_capacity(self.num_candidates());
        sweep_block(self, read, kind, shape, |i, fold| {
            let evaluations = self.len(i) as u64 + 1 - n;
            ops.whd_evaluations += evaluations;
            ops.base_comparisons += fold.visited;
            if pruning {
                ops.whd_pruned += fold.sweep.offsets_above_min;
            }
            // Completed offsets visit all `n` bases, so the shortfall is
            // exactly the pruned offsets' saving.
            ops.comparisons_saved += evaluations * n - fold.visited;
            column.push(fold.min());
        });
        column
    }
}

/// One read prepared for sweeping: byte codes and quality scores copied
/// into lane arrays zero-padded to a [`ROW_PAD`] multiple, so dense folds
/// can run whole vectors with no tail (padding lanes carry score `0` and
/// therefore contribute nothing). Both lane arrays share one buffer, and
/// [`SweepRead::refill`] reuses it for the next read of a target.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepRead {
    /// The code lanes, then the score lanes: two halves of the padded
    /// length each, real values in `[..len]` and zeros after.
    lanes: Vec<u8>,
    len: usize,
    score_total: u64,
}

impl SweepRead {
    /// Prepares a read from raw bases and its quality scores.
    ///
    /// # Panics
    ///
    /// Panics if `quals` has fewer scores than `bases`.
    pub fn new(bases: &[Base], quals: &Qual) -> Self {
        let mut read = SweepRead::default();
        read.refill(bases, quals);
        read
    }

    /// Prepares another read in this buffer, keeping its allocation: the
    /// result equals [`SweepRead::new`]`(bases, quals)`, padding lanes
    /// included, whatever read the buffer held before.
    ///
    /// # Panics
    ///
    /// Panics if `quals` has fewer scores than `bases`.
    pub fn refill(&mut self, bases: &[Base], quals: &Qual) {
        let len = bases.len();
        let scores = quals.scores();
        assert!(scores.len() >= len, "missing quality scores");
        let padded = len.next_multiple_of(ROW_PAD);
        self.lanes.clear();
        self.lanes.resize(2 * padded, 0);
        let (codes, lane_scores) = self.lanes.split_at_mut(padded);
        for (code, &b) in codes.iter_mut().zip(bases) {
            *code = base_code(b);
        }
        lane_scores[..len].copy_from_slice(&scores[..len]);
        self.len = len;
        self.score_total = scores[..len].iter().map(|&s| u64::from(s)).sum();
    }

    /// Number of real bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the read has no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sum of the read's quality scores: every offset's WHD is at
    /// most this.
    pub fn score_total(&self) -> u64 {
        self.score_total
    }

    /// The read's codes, exactly `len` bytes.
    pub fn codes(&self) -> &[u8] {
        &self.lanes[..self.len]
    }

    /// The read's quality scores, exactly `len` bytes.
    pub fn scores(&self) -> &[u8] {
        let padded = self.padded_len();
        &self.lanes[padded..padded + self.len]
    }

    /// Codes padded with zeros to the lane-array length.
    pub fn codes_padded(&self) -> &[u8] {
        &self.lanes[..self.padded_len()]
    }

    /// Scores padded with zeros to the lane-array length — the padding
    /// lanes are what make full-vector folds exact past the read end.
    pub fn scores_padded(&self) -> &[u8] {
        &self.lanes[self.padded_len()..]
    }

    /// The lane-array length (`len` rounded up to a [`ROW_PAD`] multiple).
    pub fn padded_len(&self) -> usize {
        self.lanes.len() / 2
    }

    /// The read prepared once for every range-kernel call on `kind`
    /// ([`PreparedRead`]), its expansion written to `words`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` cannot run on this CPU.
    pub fn prepare<'a>(&'a self, kind: KernelKind, words: &'a mut ReadWords) -> PreparedRead<'a> {
        PreparedRead::new(
            kind,
            self.codes_padded(),
            self.scores_padded(),
            self.len,
            words,
        )
    }
}

/// How each offset of a [`sweep_block`] scans the read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepShape {
    /// Serial immediate prune (paper §III-A at base granularity): an
    /// offset stops at the first base where its running sum exceeds the
    /// minimum WHD of the offsets before it, its budget.
    Serial,
    /// Every offset folds the whole read.
    Dense,
}

/// A row's sweep over its first offsets, or all of them: the fold of
/// their entries ([`DenseSweep`]) and the bases they visit, stop bases
/// included. Under the serial shape the fold's offsets above the running
/// minimum are exactly the pruned offsets (DESIGN.md §4f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowFold {
    /// The minimum WHD, its first offset and the offsets above the
    /// running minimum.
    pub sweep: DenseSweep,
    /// The bases the offsets visit.
    pub visited: u64,
}

impl RowFold {
    /// Before offset 0.
    const START: RowFold = RowFold {
        sweep: DenseSweep::START,
        visited: 0,
    };

    /// The minimum WHD and the first offset holding it.
    pub fn min(&self) -> MinWhd {
        MinWhd {
            whd: self.sweep.min_whd,
            offset: self.sweep.min_offset,
        }
    }

    /// This fold continued over `range`, a serial range that starts where
    /// it ends.
    fn then(self, range: SerialRange) -> RowFold {
        RowFold {
            sweep: range.sweep,
            visited: self.visited + range.visited,
        }
    }
}

/// Runs `f` on the calling thread's [`sweep_block`] scratch. Zeroing a
/// fresh one (about 21 KiB) costs about as much as sweeping a short read,
/// so each thread keeps one.
fn with_scratch<R>(f: impl FnOnce(&mut WhdBuffers) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<WhdBuffers> = RefCell::new(WhdBuffers::new());
    }
    SCRATCH.with_borrow_mut(f)
}

/// Offsets per row [`WhdBuffers`] holds without allocating: every row of
/// a hardware-sized target (consensuses of at most 2,048 bases).
const INLINE_OFFSETS: usize = 2_049;

/// Offsets between two of the reference's fold checkpoints: one AVX-512
/// block.
const MARK_STRIDE: usize = 64;

/// Checkpoints of a row of [`INLINE_OFFSETS`] offsets, both ends included.
const INLINE_MARKS: usize = INLINE_OFFSETS.div_ceil(MARK_STRIDE) + 1;

/// The scratch of a reusing read sweep ([`sweep_block`]): the arrays of
/// [`RowBuffers`] and the read's kernel expansion. One per thread
/// ([`with_scratch`]) serves every read of every target. Rows of up to
/// [`INLINE_OFFSETS`] offsets use the inline arrays, so sweeping a
/// hardware-sized target allocates nothing beyond its packing; longer
/// rows spill to the heap.
#[derive(Debug)]
struct WhdBuffers {
    inline: [u16; 3 * INLINE_OFFSETS],
    spill: Vec<u16>,
    marks: [RowFold; INLINE_MARKS],
    marks_spill: Vec<RowFold>,
    words: ReadWords,
}

/// A reusing sweep's arrays, each with room for the longest row. An
/// entry is an offset's WHD or, under the serial shape, if the offset is
/// pruned, a value above its budget ([`kernel::serial_range`]).
struct RowBuffers<'a> {
    /// The reference's entries.
    ref_whds: &'a mut [u16],
    /// Serial: the reference's visit counts.
    ref_visits: &'a mut [u16],
    /// Dense: the entries of the row being assembled. Serial: those of
    /// an alternative's swept range.
    whds: &'a mut [u16],
    /// Serial: the reference's fold checkpoints ([`RefFold`]).
    marks: &'a mut [RowFold],
}

impl WhdBuffers {
    fn new() -> Self {
        WhdBuffers {
            inline: [0; 3 * INLINE_OFFSETS],
            spill: Vec::new(),
            marks: [RowFold::START; INLINE_MARKS],
            marks_spill: Vec::new(),
            words: ReadWords::new(),
        }
    }

    /// The arrays for rows of up to `offsets` offsets, and the expansion
    /// scratch.
    fn split(&mut self, offsets: usize) -> (RowBuffers<'_>, &mut ReadWords) {
        let (buf, marks) = if offsets <= INLINE_OFFSETS {
            (&mut self.inline[..], &mut self.marks[..])
        } else {
            self.spill.resize(3 * offsets, 0);
            let marks = offsets.div_ceil(MARK_STRIDE) + 1;
            self.marks_spill.resize(marks, RowFold::START);
            (&mut self.spill[..], &mut self.marks_spill[..])
        };
        let mut parts = buf
            .chunks_exact_mut(buf.len() / 3)
            .map(|part| &mut part[..offsets]);
        let mut part = || parts.next().expect("three arrays");
        let buffers = RowBuffers {
            ref_whds: part(),
            ref_visits: part(),
            whds: part(),
            marks,
        };
        (buffers, &mut self.words)
    }
}

/// The reference row under the serial shape, swept and folded one
/// [`MARK_STRIDE`]-offset block at a time with a checkpoint at every
/// block boundary, so the fold of any prefix of the row costs one
/// checkpoint and at most one partial block.
struct RefFold<'a> {
    kind: KernelKind,
    whds: &'a [u16],
    /// Each offset's visited bases.
    visits: &'a [u16],
    /// `marks[b]` is the fold of offsets `0..b * MARK_STRIDE`; the last
    /// is the whole row's.
    marks: &'a [RowFold],
}

impl<'a> RefFold<'a> {
    /// Sweeps `read` along the reference `row` into `whds` and `visits`,
    /// one block at a time, recording the fold after each block in
    /// `marks`.
    fn sweep(
        read: &PreparedRead,
        row: &[u8],
        kind: KernelKind,
        whds: &'a mut [u16],
        visits: &'a mut [u16],
        marks: &'a mut [RowFold],
    ) -> Self {
        let mut mark = RowFold::START;
        marks[0] = mark;
        for (b, k0) in (0..whds.len()).step_by(MARK_STRIDE).enumerate() {
            let end = (k0 + MARK_STRIDE).min(whds.len());
            let visits = Some(&mut visits[k0..end]);
            let swept = kernel::serial_range(read, row, k0, mark.sweep, &mut whds[k0..end], visits);
            mark = mark.then(swept);
            marks[b + 1] = mark;
        }
        let marks = &marks[..whds.len().div_ceil(MARK_STRIDE) + 1];
        RefFold {
            kind,
            whds,
            visits,
            marks,
        }
    }

    /// The fold of the whole row.
    fn whole(&self) -> RowFold {
        self.marks[self.marks.len() - 1]
    }

    /// The fold of offsets `0..r`: the checkpoint before it, continued
    /// over the rest of its block ([`kernel::fold_whds`]) and the visits
    /// summed.
    fn before(&self, r: usize) -> RowFold {
        let lo = r - r % MARK_STRIDE;
        let mark = self.marks[lo / MARK_STRIDE];
        if lo == r {
            return mark;
        }
        let visited: u64 = self.visits[lo..r].iter().map(|&v| u64::from(v)).sum();
        RowFold {
            sweep: kernel::fold_whds(self.kind, mark.sweep, lo, &self.whds[lo..r]),
            visited: mark.visited + visited,
        }
    }

    /// Completes `row`, the fold of an alternative's offsets before `k`,
    /// whose running minimum equals that of `at`, the reference's fold
    /// before its matching offset `r`; offsets from `k` on lie in the
    /// shared suffix, offset `k + j` on reference offset `r + j`. From
    /// there the budgets agree, so the rest of the alternative has the
    /// reference's entries against the same running minimum: the same
    /// verdicts and visits. It adds the tail's tallies (the whole row's
    /// less `at`'s), and a new minimum in the tail is the reference's, at
    /// `from_ref` of its offset.
    fn rejoin(&self, mut row: RowFold, at: RowFold, from_ref: impl Fn(usize) -> usize) -> RowFold {
        let end = self.whole();
        row.sweep.offsets_above_min += end.sweep.offsets_above_min - at.sweep.offsets_above_min;
        row.visited += end.visited - at.visited;
        if end.sweep.min_whd < at.sweep.min_whd {
            row.sweep.min_whd = end.sweep.min_whd;
            row.sweep.min_offset = from_ref(end.sweep.min_offset);
        }
        row
    }
}

/// Sweeps `read` against every row of `block` under `shape`, handing
/// `emit` each row's index and [`RowFold`] in row order. Row `i`'s fold
/// is that of the per-offset scan of `read` along candidate `i`: under
/// the serial shape, of the per-base pruned scan the scalar
/// [`crate::calc_whd_bounded`] loop and the serial HDC perform.
///
/// For a read whose score total fits a `u16` WHD (and, serial, of at most
/// [`kernel::PARALLEL_MAX_BASES`] bases), the rows share their entries.
/// The read is prepared once ([`SweepRead::prepare`]) and row 0 (the
/// reference) is swept in full. Each entry is its offset's WHD or
/// (serial, pruned) a value above that offset's budget, so a fold of the
/// entries ([`kernel::fold_whds`]) gives the minimum, its first offset
/// and the offsets above the running minimum (the pruned offsets)
/// exactly (DESIGN.md §4f). Each later row uses the prefix and suffix
/// [`CandidateBlock::shared_with_reference`] measured at packing: the
/// windows inside the shared prefix are the reference's at the same
/// offsets, those inside the shared suffix the reference's `len(0) -
/// len(i)` offsets on, and only the windows that straddle the difference
/// are swept.
///
/// - **Dense.** An entry depends only on its window, so the row's
///   entries are assembled from the reference's prefix and suffix
///   entries and the swept ones ([`kernel::whd_range`]) and folded whole.
/// - **Serial.** An entry also depends on its budget, the running
///   minimum before it, and a fold carries nothing but that state. The
///   reference is swept and folded a block at a time with a checkpoint
///   at every 64 offsets (`RefFold`), and each row's fold is composed,
///   costing only the offsets it sweeps:
///   1. a prefix offset has the reference's budget too, since every
///      offset before it lies in the prefix, so the row starts from the
///      reference's fold and visits before `fresh_lo`, the first
///      straddling offset, read from the checkpoints;
///   2. the straddling windows, rounded up to whole 64-offset blocks (a
///      partial block costs the AVX-512 kernel a whole one), are swept
///      and folded on from that state ([`kernel::serial_range`]), then
///      the suffix one block at a time;
///   3. after each block in the suffix, the row's running minimum is
///      compared with the reference's before the matching offset. Once
///      they are equal the budgets agree from there on (DESIGN.md §4f),
///      so the rest of the row adds the reference's tail tallies: the
///      whole reference's fold and visits less its checkpointed state
///      there (`RefFold::rejoin`).
///
/// A read past those bounds sweeps each row on its own, one offset at a
/// time in `u64`: [`kernel::serial_sweep`] under the serial shape, a
/// [`kernel::fold_whd`] per offset under the dense one.
///
/// # Panics
///
/// Panics if the read is longer than any row, or if `kind` cannot run on
/// this CPU.
pub fn sweep_block(
    block: &CandidateBlock,
    read: &SweepRead,
    kind: KernelKind,
    shape: SweepShape,
    mut emit: impl FnMut(usize, RowFold),
) {
    let n = read.len();
    let rows = block.num_candidates();
    assert!(
        (0..rows).all(|i| n <= block.len(i)),
        "read longer than consensus"
    );
    if rows == 0 {
        return;
    }
    let serial = shape == SweepShape::Serial;
    let dense = |sweep: DenseSweep, offsets: usize| RowFold {
        sweep,
        visited: (offsets * n) as u64,
    };
    with_scratch(|scratch| {
        let (buffers, words) = scratch.split(block.max_len() - n + 1);
        let prepared = read.prepare(kind, words);
        if read.score_total() >= kernel::WHD_U16_LIMIT || (serial && n > kernel::PARALLEL_MAX_BASES)
        {
            let (codes, scores) = (read.codes_padded(), read.scores_padded());
            for i in 0..rows {
                let (row, offsets) = (block.row_padded(i), block.len(i) - n + 1);
                if serial {
                    let swept = kernel::serial_sweep(&prepared, row, offsets);
                    emit(i, RowFold::START.then(swept));
                    continue;
                }
                let mut sweep = DenseSweep::START;
                for k in 0..offsets {
                    let win = &row[k..k + codes.len()];
                    sweep.push(k, kernel::fold_whd(kind, win, codes, scores));
                }
                emit(i, dense(sweep, offsets));
            }
            return;
        }
        let RowBuffers {
            ref_whds,
            ref_visits,
            whds,
            marks,
        } = buffers;
        let ref_len = block.len(0);
        let ref_offsets = ref_len - n + 1;
        let (ref_whds, ref_visits) = (&mut ref_whds[..ref_offsets], &mut ref_visits[..ref_offsets]);
        let ref_row = block.row_padded(0);
        // Row `i`'s length, offsets and straddling offsets
        // `fresh_lo..fresh_hi`: offsets `k + n <= prefix` lie in the
        // prefix, offsets `k >= len - suffix` in the suffix.
        let bounds = |i: usize| {
            let len = block.len(i);
            let offsets = len - n + 1;
            let (prefix, suffix) = block.shared_with_reference(i);
            let fresh_lo = (prefix + 1).saturating_sub(n).min(offsets);
            let fresh_hi = (len - suffix).clamp(fresh_lo, offsets);
            (len, offsets, fresh_lo, fresh_hi)
        };
        if !serial {
            kernel::whd_range(&prepared, ref_row, 0, ref_whds);
            let fold = kernel::fold_whds(kind, DenseSweep::START, 0, ref_whds);
            emit(0, dense(fold, ref_offsets));
            for i in 1..rows {
                let (len, offsets, fresh_lo, fresh_hi) = bounds(i);
                let whds = &mut whds[..offsets];
                whds[..fresh_lo].copy_from_slice(&ref_whds[..fresh_lo]);
                let fresh = &mut whds[fresh_lo..fresh_hi];
                kernel::whd_range(&prepared, block.row_padded(i), fresh_lo, fresh);
                whds[fresh_hi..].copy_from_slice(&ref_whds[fresh_hi + ref_len - len..]);
                let fold = kernel::fold_whds(kind, DenseSweep::START, 0, whds);
                emit(i, dense(fold, offsets));
            }
            return;
        }
        let reference = RefFold::sweep(&prepared, ref_row, kind, ref_whds, ref_visits, marks);
        emit(0, reference.whole());
        for i in 1..rows {
            let (len, offsets, fresh_lo, fresh_hi) = bounds(i);
            // Offset `k` of the suffix is the reference's `to_ref(k)`.
            let to_ref = |k: usize| k + ref_len - len;
            let from_ref = |r: usize| r + len - ref_len;
            let row = block.row_padded(i);
            let mut fold = reference.before(fresh_lo);
            // The first range covers the straddling windows, rounded up
            // to whole blocks; then one block at a time.
            let mut k = fresh_lo;
            let mut end = (fresh_lo + (fresh_hi - fresh_lo).next_multiple_of(64)).min(offsets);
            loop {
                let whds = &mut whds[..end - k];
                let swept = kernel::serial_range(&prepared, row, k, fold.sweep, whds, None);
                fold = fold.then(swept);
                k = end;
                if k == offsets {
                    break;
                }
                // `k >= fresh_hi`: the first range ends past the straddle.
                let at = reference.before(to_ref(k));
                if fold.sweep.min_whd == at.sweep.min_whd {
                    fold = reference.rejoin(fold, at, from_ref);
                    break;
                }
                end = (k + 64).min(offsets);
            }
            emit(i, fold);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::whd::calc_whd_bounded;

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
    fn shared_prefix_and_suffix_are_measured_against_row_zero() {
        let cands = [
            seq("ACGTACGT"),
            seq("ACGTTACGT"), // an insertion
            seq("ACGACGT"),   // a deletion
            seq("ACGTACGT"),  // the reference itself
            seq("TTTT"),
            seq(""),
        ];
        let rows: Vec<&[Base]> = cands.iter().map(|c| c.bases()).collect();
        let block = CandidateBlock::from_bases_rows(&rows);
        let shared: Vec<_> = (0..rows.len())
            .map(|i| block.shared_with_reference(i))
            .collect();
        assert_eq!(shared, [(8, 8), (4, 5), (3, 4), (8, 8), (0, 1), (0, 0)]);
        let quals = Qual::from_raw_scores(&[30, 0, 41, 7]).unwrap();
        assert_eq!(SweepRead::new(cands[4].bases(), &quals).score_total(), 78);
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
    fn refill_after_a_longer_read_equals_a_fresh_read() {
        let long = seq(&"ACGTN".repeat(18));
        let short = seq("TGCAT");
        let mut read = SweepRead::new(long.bases(), &Qual::uniform(41, long.len()).unwrap());
        assert_eq!(read.padded_len(), 2 * ROW_PAD);
        let quals = Qual::from_raw_scores(&[7, 23, 45, 11, 2]).unwrap();
        read.refill(short.bases(), &quals);
        assert_eq!(read, SweepRead::new(short.bases(), &quals));
        assert_eq!(read.padded_len(), ROW_PAD);
        assert!(read.codes_padded()[5..].iter().all(|&c| c == 0));
        assert!(read.scores_padded()[5..].iter().all(|&s| s == 0));
        assert_eq!(read.scores(), quals.scores());
    }

    /// Reads past the `u16` entries' bounds sweep each row on its own:
    /// one whose score total reaches 0xFFFF (720 bases at Phred 93) under
    /// both shapes, and one of 1,025 bases under the serial shape.
    #[test]
    fn reads_past_the_u16_bounds_match_per_pair() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let reference: Vec<Base> = (0..1_200)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Base::from_index((x >> 33) as usize % 4)
            })
            .collect();
        let alt = [&reference[..600], &reference[603..]].concat();
        let cands = [Sequence::new(reference.clone()), Sequence::new(alt)];
        let rows: Vec<&[Base]> = cands.iter().map(|c| c.bases()).collect();
        let block = CandidateBlock::from_bases_rows(&rows);
        for (n, score) in [(720, 93u8), (1_025, 20)] {
            let mut bases = reference[40..40 + n].to_vec();
            bases[n / 2] = if bases[n / 2] == Base::A {
                Base::C
            } else {
                Base::A
            };
            let read = Sequence::new(bases);
            let quals = Qual::uniform(score, n).unwrap();
            let sweep_read = SweepRead::new(read.bases(), &quals);
            for pruning in [false, true] {
                let mut want_ops = OpCounts::default();
                let want = reference_column(&cands, &read, &quals, pruning, &mut want_ops);
                for kind in KernelKind::available() {
                    let mut ops = OpCounts::default();
                    let col = block.sweep(&sweep_read, pruning, kind, &mut ops);
                    assert_eq!((col, ops), (want.clone(), want_ops), "{kind} {n} {pruning}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "read longer than consensus")]
    fn sweep_rejects_long_read() {
        let block = CandidateBlock::from_bases_rows(&[seq("ACG").bases()]);
        let read = SweepRead::new(seq("ACGT").bases(), &Qual::uniform(1, 4).unwrap());
        let mut ops = OpCounts::default();
        let _ = block.sweep(&read, true, KernelKind::Scalar, &mut ops);
    }

    /// The reference's checkpointed fold ([`RefFold::before`]) at every
    /// offset, block edges and the row's end included, equals one serial
    /// range over the offsets before it, fold and visits, on every kind.
    #[test]
    fn checkpoint_lookups_equal_a_prefix_fold() {
        let cons: Sequence = (0..300)
            .map(|i| Base::from_index((i * 7 + i / 13) % 4))
            .collect();
        let read = cons.slice(131, 131 + 40);
        let quals =
            Qual::from_raw_scores(&(0..40).map(|i| 5 + i % 23).collect::<Vec<u8>>()).unwrap();
        let block = CandidateBlock::from_bases_rows(&[cons.bases()]);
        let sweep_read = SweepRead::new(read.bases(), &quals);
        let offsets = cons.len() - read.len() + 1;
        for kind in KernelKind::available() {
            let mut words = ReadWords::new();
            let prepared = sweep_read.prepare(kind, &mut words);
            let (mut whds, mut visits) = (vec![0u16; offsets], vec![0u16; offsets]);
            let mut marks = vec![RowFold::START; offsets.div_ceil(MARK_STRIDE) + 1];
            let row = block.row_padded(0);
            let fold = RefFold::sweep(&prepared, row, kind, &mut whds, &mut visits, &mut marks);
            for r in 0..=offsets {
                let mut scratch = vec![0u16; r];
                let swept =
                    kernel::serial_range(&prepared, row, 0, DenseSweep::START, &mut scratch, None);
                assert_eq!(
                    fold.before(r),
                    RowFold::START.then(swept),
                    "{kind} offset {r}"
                );
            }
            assert_eq!(fold.whole(), fold.before(offsets), "{kind}");
        }
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
            /// A reference (row 0) and up to 3 rows that are the reference
            /// plus one insertion, deletion or substitution, half of them
            /// placed at a 64-offset block edge, so the reusing sweep's
            /// straddling windows start and end on its checkpoints. Up to
            /// 241 offsets per row, so the serial sweep crosses those
            /// checkpoints and rejoins the reference in the shared suffix.
            /// The read (possibly empty) is cut from a random row with a
            /// few substitutions, or drawn at random.
            fn sweep_inputs()(
                read_len in 0usize..=70,
                slack in 0usize..=170,
                ref_raw in prop::collection::vec(base_strategy(), 240),
                edits in prop::collection::vec(
                    (0u8..3, 1usize..=12, any::<bool>(), any::<usize>(), 0usize..5),
                    0..=3,
                ),
                ins_raw in prop::collection::vec(base_strategy(), 12),
                cut in (0usize..4, 0.0f64..=1.0, 0u8..5),
                subs in prop::collection::vec((0usize..70, base_strategy()), 0..=3),
                read_raw in prop::collection::vec(base_strategy(), 70),
                quals_raw in prop::collection::vec(0u8..=93, 70),
            ) -> (Vec<Sequence>, Sequence, Qual) {
                let reference = &ref_raw[..read_len + slack];
                let mut rows = vec![reference.to_vec()];
                for &(kind, len, edge, pos, step) in &edits {
                    let at = if edge {
                        let lane = [0, 1, 2, read_len, read_len + 1][step];
                        (64 * (pos % 4) + lane).saturating_sub(1).min(reference.len())
                    } else {
                        pos % (reference.len() + 1)
                    };
                    let mut row = reference.to_vec();
                    match kind {
                        0 => drop(row.splice(at..at, ins_raw[..len].iter().copied())),
                        1 => drop(row.drain(at..(at + len).min(reference.len()))),
                        _ if at < row.len() => row[at] = if row[at] == b'A' { b'C' } else { b'A' },
                        _ => {}
                    }
                    rows.push(row);
                }
                let n = rows.iter().map(Vec::len).min().unwrap_or(0).min(read_len);
                let (cut_row, cut_frac, random) = cut;
                let mut read = if random == 0 {
                    read_raw[..n].to_vec()
                } else {
                    let row = &rows[cut_row % rows.len()];
                    let start = ((row.len() - n) as f64 * cut_frac) as usize;
                    row[start..start + n].to_vec()
                };
                for &(pos, base) in &subs {
                    if n > 0 {
                        read[pos % n] = base;
                    }
                }
                let cands = rows.iter().map(|r| Sequence::from_ascii(r).unwrap()).collect();
                let read = Sequence::from_ascii(&read).unwrap();
                (cands, read, Qual::from_raw_scores(&quals_raw[..n]).unwrap())
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases_env(128))]

            /// Batch sweep ≡ per-pair bounded kernel, for every available
            /// kernel, both pruning modes, ragged reference-plus-edit rows
            /// and zero-length reads — results and `OpCounts` alike.
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
