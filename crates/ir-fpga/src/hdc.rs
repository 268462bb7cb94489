//! The Hamming Distance Calculator (HDC) stage — cycle model.
//!
//! The HDC is the first of the IR unit's two stages (paper Figure 5). The
//! base design compares **one base per cycle** and accumulates the quality
//! score on a mismatch. The optimized design (Figure 8) reads a 32-byte
//! block from block RAM each cycle and performs **32 compares and 32
//! accumulates per cycle**; two consecutive consensus blocks are kept in
//! registers so the shifted window never needs a second read port.
//!
//! Both designs implement computation pruning: a register tracks the
//! running minimum WHD for the current (consensus, read) pair, and the
//! scan of an offset stops as soon as its running sum exceeds that minimum
//! (paper §III-A). Pruning granularity is one *cycle*: the serial design
//! can stop after any base, the data-parallel design only after each
//! 32-byte block — one of the accuracy-preserving costs of data
//! parallelism this model captures.
//!
//! [`run_pair`] steps the model cycle by cycle and is the reference.
//! [`run_read_sweep`] is the production path: it jumps the cycle
//! accounting to each scan's outcome and evaluates the folds on the
//! runtime-dispatched kernels ([`ir_core::kernel`]) over the
//! structure-of-arrays batch layout ([`ir_core::batch`]) — same
//! [`PairRun`] per candidate, bit for bit, for every [`KernelKind`].

use std::cell::RefCell;

use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel::{self, DenseSweep, KernelKind, PreparedRead, ReadWords};
use ir_core::MinWhd;
use ir_genome::{Qual, Sequence};

/// Configuration of the HDC stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HdcConfig {
    /// Comparisons per cycle: 1 (base design) or 32 (Figure 8).
    pub lanes: usize,
    /// Computation pruning enabled.
    pub pruning: bool,
    /// Fixed cycles of setup per (consensus, read) pair (pointer loads and
    /// min-register reset).
    pub pair_overhead_cycles: u64,
    /// Blocks that are already in flight when the prune comparator's
    /// verdict arrives. The serial design closes compare → accumulate →
    /// prune-check in one cycle (latency 0); the 32-lane design's 32-input
    /// adder tree plus minimum comparison takes ~2 extra cycles, so two
    /// more blocks issue before an offset's scan can stop.
    pub prune_latency_blocks: u64,
}

impl HdcConfig {
    /// The base serial design with pruning.
    pub fn serial() -> Self {
        HdcConfig {
            lanes: 1,
            pruning: true,
            pair_overhead_cycles: 2,
            prune_latency_blocks: 0,
        }
    }

    /// The Figure 8 data-parallel design with pruning.
    pub fn data_parallel() -> Self {
        HdcConfig {
            lanes: 32,
            prune_latency_blocks: 2,
            ..HdcConfig::serial()
        }
    }

    /// Whether every offset of a `read_len`-base read folds the whole
    /// read: there is no prune comparator, or the read spans at most
    /// `prune_latency_blocks + 1` blocks, so every block has issued before
    /// even block 0's prune verdict lands. Such a scan never stops early,
    /// and its cost is [`PairRun::dense`]'s closed form.
    pub fn scans_in_full(&self, read_len: usize) -> bool {
        !self.pruning || read_len.div_ceil(self.lanes) as u64 <= self.prune_latency_blocks + 1
    }
}

impl Default for HdcConfig {
    fn default() -> Self {
        HdcConfig::data_parallel()
    }
}

/// Result of scanning one (consensus, read) pair through the HDC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairRun {
    /// The minimum weighted Hamming distance and its offset — identical to
    /// the golden model's result.
    pub min: MinWhd,
    /// Cycles the scan occupied the HDC pipeline.
    pub cycles: u64,
    /// Base comparisons executed (each lane-slot holding a valid base).
    pub comparisons: u64,
    /// Offsets whose scan was abandoned by pruning.
    pub offsets_pruned: u64,
}

impl PairRun {
    /// The run of a pair whose every offset folds the whole read
    /// ([`HdcConfig::scans_in_full`]): `cons_len - read_len + 1` offsets,
    /// each charged `read_len` comparisons and `read_len.div_ceil(lanes)`
    /// cycles, plus the pair overhead. A comparator that cannot stop a
    /// scan in time still flags the `offsets_above_min` offsets whose WHD
    /// exceeds the running minimum as pruned.
    pub fn dense(
        cfg: HdcConfig,
        cons_len: usize,
        read_len: usize,
        min: MinWhd,
        offsets_above_min: u64,
    ) -> PairRun {
        let offsets = (cons_len - read_len) as u64 + 1;
        PairRun {
            min,
            cycles: cfg.pair_overhead_cycles + offsets * read_len.div_ceil(cfg.lanes) as u64,
            comparisons: offsets * read_len as u64,
            offsets_pruned: if cfg.pruning { offsets_above_min } else { 0 },
        }
    }
}

/// Scans `read` along `consensus` and returns the minimum WHD together
/// with the cycle cost of the scan.
///
/// Functionally this is exactly Algorithm 1 for a single (consensus, read)
/// pair; the block structure only affects *when* pruning can stop a scan,
/// never the result.
///
/// This is the HDC's one cycle-level reference: each pass of the inner
/// loop is one clock, so the cycle count is built the way the datapath
/// spends it. The loop charges
///
/// - one cycle per issued block of `lanes` bases,
/// - after a prune verdict, the `prune_latency_blocks` blocks still in
///   flight before the stop takes effect,
/// - and `pair_overhead_cycles` once per pair.
///
/// The unit tests pin those rules (`unpruned_*_cycle_count_*`,
/// `pruned_offset_drains_the_blocks_in_flight`,
/// `pair_overhead_is_charged_once`,
/// `serial_comparisons_match_golden_pruned_counts`); the production
/// sweep ([`run_read_sweep`], [`crate::unit::simulate_target_fast`]) is
/// checked against it pair by pair, and `tests/target_digests.rs` pins
/// whole unit runs of both over every workload shape family.
///
/// # Panics
///
/// Panics if the read is longer than the consensus, if `quals` is shorter
/// than the read, or if `lanes` is zero.
pub fn run_pair(consensus: &Sequence, read: &Sequence, quals: &Qual, cfg: HdcConfig) -> PairRun {
    assert!(cfg.lanes > 0, "HDC must have at least one lane");
    let cons = consensus.bases();
    let bases = read.bases();
    let scores = quals.scores();
    assert!(bases.len() <= cons.len(), "read longer than consensus");
    assert!(scores.len() >= bases.len(), "missing quality scores");

    let n = bases.len();
    let max_k = cons.len() - n;
    let mut min = MinWhd {
        whd: u64::MAX,
        offset: 0,
    };
    let mut cycles = cfg.pair_overhead_cycles;
    let mut comparisons = 0u64;
    let mut offsets_pruned = 0u64;

    for k in 0..=max_k {
        let mut whd = 0u64;
        let mut pruned = false;
        let mut block_start = 0usize;
        // Blocks still in flight once the prune verdict lands.
        let mut drain: Option<u64> = None;
        while block_start < n {
            let block_end = (block_start + cfg.lanes).min(n);
            cycles += 1;
            comparisons += (block_end - block_start) as u64;
            for idx in block_start..block_end {
                if cons[k + idx] != bases[idx] {
                    whd += u64::from(scores[idx]);
                }
            }
            if let Some(remaining) = drain.as_mut() {
                *remaining -= 1;
                if *remaining == 0 {
                    break;
                }
            } else if cfg.pruning && whd > min.whd {
                // The prune comparator evaluates after the block's
                // accumulate settles; with a pipelined adder tree the stop
                // takes effect `prune_latency_blocks` blocks later.
                pruned = true;
                if cfg.prune_latency_blocks == 0 {
                    break;
                }
                drain = Some(cfg.prune_latency_blocks);
            }
            block_start = block_end;
        }
        if pruned {
            offsets_pruned += 1;
        } else if whd < min.whd {
            min = MinWhd { whd, offset: k };
        }
    }
    debug_assert_ne!(min.whd, u64::MAX, "offset 0 always completes");
    PairRun {
        min,
        cycles,
        comparisons,
        offsets_pruned,
    }
}

/// Sweeps one prepared read against every candidate of the batch: one
/// grid column through the same per-pair scan
/// [`crate::unit::simulate_target_fast`] runs. Element `i` of the result
/// is exactly `run_pair(candidate_i, read, …)`.
///
/// # Panics
///
/// As [`run_pair`], plus if `kind` cannot run on this CPU.
pub fn run_read_sweep(
    block: &CandidateBlock,
    read: &SweepRead,
    kind: KernelKind,
    cfg: HdcConfig,
) -> Vec<PairRun> {
    let mut runs = Vec::with_capacity(block.num_candidates());
    with_scratch(|scratch| {
        sweep_block(block, read, kind, cfg, scratch, |_, run| runs.push(run));
    });
    runs
}

/// Runs `f` on the calling thread's [`sweep_block`] scratch. Zeroing a
/// fresh one (about 21 KiB) costs about as much as sweeping a short read,
/// so each thread keeps one.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut WhdBuffers) -> R) -> R {
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
/// ([`with_scratch`]) serves every read of every target. Rows of up to [`INLINE_OFFSETS`] offsets use the inline
/// arrays, so sweeping a hardware-sized target allocates nothing beyond
/// its packing; longer rows spill to the heap.
#[derive(Debug)]
pub(crate) struct WhdBuffers {
    inline: [u16; 3 * INLINE_OFFSETS],
    spill: Vec<u16>,
    marks: [Mark; INLINE_MARKS],
    marks_spill: Vec<Mark>,
    words: ReadWords,
}

/// The serial fold of a row's first offsets: their [`DenseSweep`] state
/// and the bases they visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark {
    sweep: DenseSweep,
    visited: u64,
}

impl Mark {
    /// Before offset 0.
    const START: Mark = Mark {
        sweep: DenseSweep::START,
        visited: 0,
    };
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
    marks: &'a mut [Mark],
}

impl WhdBuffers {
    pub(crate) fn new() -> Self {
        WhdBuffers {
            inline: [0; 3 * INLINE_OFFSETS],
            spill: Vec::new(),
            marks: [Mark::START; INLINE_MARKS],
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
            self.marks_spill.resize(marks, Mark::START);
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
    marks: &'a [Mark],
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
        marks: &'a mut [Mark],
    ) -> Self {
        let mut mark = Mark::START;
        marks[0] = mark;
        for (b, k0) in (0..whds.len()).step_by(MARK_STRIDE).enumerate() {
            let end = (k0 + MARK_STRIDE).min(whds.len());
            let visits = Some(&mut visits[k0..end]);
            let swept = kernel::serial_range(read, row, k0, mark.sweep, &mut whds[k0..end], visits);
            mark = Mark {
                sweep: swept.sweep,
                visited: mark.visited + swept.visited,
            };
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
    fn whole(&self) -> Mark {
        self.marks[self.marks.len() - 1]
    }

    /// The fold of offsets `0..r`: the checkpoint before it, continued
    /// over the rest of its block ([`kernel::fold_whds`]) and the visits
    /// summed.
    fn before(&self, r: usize) -> Mark {
        let lo = r - r % MARK_STRIDE;
        let mark = self.marks[lo / MARK_STRIDE];
        if lo == r {
            return mark;
        }
        let visited: u64 = self.visits[lo..r].iter().map(|&v| u64::from(v)).sum();
        Mark {
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
    fn rejoin(&self, mut row: Mark, at: Mark, from_ref: impl Fn(usize) -> usize) -> Mark {
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

/// Whether `cfg` is the serial immediate-prune shape.
fn is_serial(cfg: HdcConfig) -> bool {
    cfg.pruning && cfg.lanes == 1 && cfg.prune_latency_blocks == 0
}

/// Sweeps one prepared read against every candidate of the block,
/// handing `emit` each candidate's index and [`PairRun`] in row order.
/// The run of candidate `i` is exactly `run_pair(candidate_i, read, …)`.
///
/// Under the dense shape (every offset folds the whole read,
/// [`HdcConfig::scans_in_full`]) and the serial immediate-prune shape,
/// for a read whose score total fits a `u16` WHD (and, serial, of at most
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
///   at every [`MARK_STRIDE`] offsets ([`RefFold`]), and each row's run
///   is composed, costing only the offsets it sweeps:
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
///      there ([`RefFold::rejoin`]).
///
/// Every other shape and read scans each pair on its own
/// ([`run_pair_codes`]).
///
/// # Panics
///
/// As [`run_pair`], plus if `kind` cannot run on this CPU.
pub(crate) fn sweep_block(
    block: &CandidateBlock,
    read: &SweepRead,
    kind: KernelKind,
    cfg: HdcConfig,
    scratch: &mut WhdBuffers,
    mut emit: impl FnMut(usize, PairRun),
) {
    let n = read.len();
    let serial = is_serial(cfg);
    let shares = if serial {
        n <= kernel::PARALLEL_MAX_BASES
    } else {
        cfg.scans_in_full(n)
    };
    if block.is_empty() || !shares || read.score_total() >= kernel::WHD_U16_LIMIT {
        for i in 0..block.num_candidates() {
            emit(
                i,
                run_pair_codes(block.row_padded(i), block.len(i), read, kind, cfg),
            );
        }
        return;
    }
    let ref_len = block.len(0);
    assert!(n <= ref_len, "read longer than consensus");
    let (buffers, words) = scratch.split(block.max_len() - n + 1);
    let RowBuffers {
        ref_whds,
        ref_visits,
        whds,
        marks,
    } = buffers;
    let read = read.prepare(kind, words);
    let ref_offsets = ref_len - n + 1;
    let (ref_whds, ref_visits) = (&mut ref_whds[..ref_offsets], &mut ref_visits[..ref_offsets]);
    let ref_row = block.row_padded(0);
    // Row `i`'s length, offsets and straddling offsets `fresh_lo..fresh_hi`:
    // offsets `k + n <= prefix` lie in the prefix, offsets
    // `k >= len - suffix` in the suffix.
    let bounds = |i: usize| {
        let len = block.len(i);
        assert!(n <= len, "read longer than consensus");
        let offsets = len - n + 1;
        let (prefix, suffix) = block.shared_with_reference(i);
        let fresh_lo = (prefix + 1).saturating_sub(n).min(offsets);
        let fresh_hi = (len - suffix).clamp(fresh_lo, offsets);
        (len, offsets, fresh_lo, fresh_hi)
    };
    if !serial {
        kernel::whd_range(&read, ref_row, 0, ref_whds);
        let fold = kernel::fold_whds(kind, DenseSweep::START, 0, ref_whds);
        emit(0, dense_run(cfg, ref_len, n, fold));
        for i in 1..block.num_candidates() {
            let (len, offsets, fresh_lo, fresh_hi) = bounds(i);
            let whds = &mut whds[..offsets];
            whds[..fresh_lo].copy_from_slice(&ref_whds[..fresh_lo]);
            let fresh = &mut whds[fresh_lo..fresh_hi];
            kernel::whd_range(&read, block.row_padded(i), fresh_lo, fresh);
            whds[fresh_hi..].copy_from_slice(&ref_whds[fresh_hi + ref_len - len..]);
            let fold = kernel::fold_whds(kind, DenseSweep::START, 0, whds);
            emit(i, dense_run(cfg, len, n, fold));
        }
        return;
    }
    let reference = RefFold::sweep(&read, ref_row, kind, ref_whds, ref_visits, marks);
    emit(0, serial_run(cfg, reference.whole()));
    for i in 1..block.num_candidates() {
        let (len, offsets, fresh_lo, fresh_hi) = bounds(i);
        // Offset `k` of the suffix is the reference's `to_ref(k)`.
        let to_ref = |k: usize| k + ref_len - len;
        let from_ref = |r: usize| r + len - ref_len;
        let row = block.row_padded(i);
        let mut fold = reference.before(fresh_lo);
        // The first range covers the straddling windows, rounded up to
        // whole blocks; then one block at a time.
        let mut k = fresh_lo;
        let mut end = (fresh_lo + (fresh_hi - fresh_lo).next_multiple_of(64)).min(offsets);
        loop {
            let swept = kernel::serial_range(&read, row, k, fold.sweep, &mut whds[..end - k], None);
            fold = Mark {
                sweep: swept.sweep,
                visited: fold.visited + swept.visited,
            };
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
        emit(i, serial_run(cfg, fold));
    }
}

/// The serial-shape [`PairRun`] of a row from its fold and its visited
/// bases.
fn serial_run(cfg: HdcConfig, fold: Mark) -> PairRun {
    PairRun {
        min: MinWhd {
            whd: fold.sweep.min_whd,
            offset: fold.sweep.min_offset,
        },
        cycles: cfg.pair_overhead_cycles + fold.visited,
        comparisons: fold.visited,
        offsets_pruned: fold.sweep.offsets_above_min,
    }
}

/// The dense-shape [`PairRun`] of a `cons_len`-base candidate from its
/// folded sweep.
fn dense_run(cfg: HdcConfig, cons_len: usize, n: usize, sweep: DenseSweep) -> PairRun {
    let min = MinWhd {
        whd: sweep.min_whd,
        offset: sweep.min_offset,
    };
    PairRun::dense(cfg, cons_len, n, min, sweep.offsets_above_min)
}

/// The jump-to-outcome scan of one (candidate, read) pair over the batch
/// layout: `row` is the candidate's zero-padded code row, `cons_len` its
/// real length. Three shapes cover every configuration:
///
/// - **Serial with immediate pruning** (`lanes == 1`,
///   `prune_latency_blocks == 0`): [`kernel::serial_sweep`] runs the
///   whole offset loop and charges each offset the bases up to and
///   including its stop base — the first base where its running sum
///   exceeds the minimum WHD of the offsets before it, which no
///   vectorization can move.
/// - **Dense** ([`HdcConfig::scans_in_full`]) — drain swallows the
///   whole read (`nblocks ≤ prune_latency_blocks + 1`: even if block 0
///   trips the comparator, every block issues before the stop lands) or
///   there is no comparator (`pruning == false`, the HLS-style configs).
///   No scan ever stops early, so the cycle and comparison charges are
///   [`PairRun::dense`]'s closed form. [`sweep_block`] takes this shape
///   for every read whose WHDs fit a `u16`; here it folds each offset of
///   the rest in `u64` over the pre-padded lane arrays (padding lanes
///   carry score 0, so they add nothing).
/// - **Everything else**: [`run_pair`]'s block loop verbatim — same
///   per-block cycle charge, same prune-verdict drain — with the inner
///   per-base compare loop replaced by the dispatched fold. The control
///   flow being identical, so are the cycle, comparison and
///   pruned-offset counts.
///
/// The equality `run_read_sweep(..)[i] == run_pair(candidate_i, ..)`
/// therefore holds unconditionally for every kernel (asserted exhaustively by the
/// differential proptest below and the kernel-parity suite).
fn run_pair_codes(
    row: &[u8],
    cons_len: usize,
    read: &SweepRead,
    kind: KernelKind,
    cfg: HdcConfig,
) -> PairRun {
    assert!(cfg.lanes > 0, "HDC must have at least one lane");
    let n = read.len();
    assert!(n <= cons_len, "read longer than consensus");
    let rcodes = read.codes();
    let scores = read.scores();

    let max_k = cons_len - n;
    if is_serial(cfg) {
        // The whole offset sweep runs inside the kernel crate so the
        // per-ISA work (on AVX-512, the two-pass offset-parallel sweep)
        // inlines into the offset loop.
        let sweep = kernel::serial_sweep(kind, row, cons_len, rcodes, scores);
        return PairRun {
            min: MinWhd {
                whd: sweep.min_whd,
                offset: sweep.min_offset,
            },
            cycles: cfg.pair_overhead_cycles + sweep.visited,
            comparisons: sweep.visited,
            offsets_pruned: sweep.offsets_pruned,
        };
    }
    if cfg.scans_in_full(n) {
        // No data-dependent exit at any offset, so the counts are
        // closed-form; a score total past the `u16` WHD bound folds each
        // offset in `u64`.
        let (codes, padded_scores) = (read.codes_padded(), read.scores_padded());
        let mut sweep = DenseSweep::START;
        for k in 0..=max_k {
            let win = &row[k..k + codes.len()];
            sweep.push(k, kernel::fold_whd(kind, win, codes, padded_scores));
        }
        return dense_run(cfg, cons_len, n, sweep);
    }

    // run_pair's block loop with the per-base compare replaced by the
    // dispatched fold; covers data-parallel, deep-drain and odd lane
    // configurations alike.
    let mut min = MinWhd {
        whd: u64::MAX,
        offset: 0,
    };
    let mut cycles = cfg.pair_overhead_cycles;
    let mut comparisons = 0u64;
    let mut offsets_pruned = 0u64;
    for k in 0..=max_k {
        let win = &row[k..k + n];
        let mut whd = 0u64;
        let mut pruned = false;
        let mut block_start = 0usize;
        let mut drain: Option<u64> = None;
        while block_start < n {
            let block_end = (block_start + cfg.lanes).min(n);
            cycles += 1;
            comparisons += (block_end - block_start) as u64;
            whd += kernel::fold_whd(
                kind,
                &win[block_start..block_end],
                &rcodes[block_start..block_end],
                &scores[block_start..block_end],
            );
            if let Some(remaining) = drain.as_mut() {
                *remaining -= 1;
                if *remaining == 0 {
                    break;
                }
            } else if cfg.pruning && whd > min.whd {
                pruned = true;
                if cfg.prune_latency_blocks == 0 {
                    break;
                }
                drain = Some(cfg.prune_latency_blocks);
            }
            block_start = block_end;
        }
        if pruned {
            offsets_pruned += 1;
        } else if whd < min.whd {
            min = MinWhd { whd, offset: k };
        }
    }
    debug_assert_ne!(min.whd, u64::MAX, "offset 0 always completes");
    PairRun {
        min,
        cycles,
        comparisons,
        offsets_pruned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::{calc_whd, OpCounts};
    use ir_genome::{Read, RealignmentTarget};

    /// One (consensus, read) pair through the production path: a
    /// one-row block swept once.
    fn sweep_pair(
        cons: &Sequence,
        read: &Sequence,
        quals: &Qual,
        kind: KernelKind,
        cfg: HdcConfig,
    ) -> PairRun {
        let block = CandidateBlock::from_bases_rows(&[cons.bases()]);
        run_read_sweep(&block, &SweepRead::new(read.bases(), quals), kind, cfg)[0]
    }

    fn fixture() -> (Sequence, Sequence, Qual) {
        (
            "CCTTAGA".parse().unwrap(),
            "TGAA".parse().unwrap(),
            Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
        )
    }

    #[test]
    fn serial_min_matches_golden_model() {
        let (cons, read, quals) = fixture();
        let run = run_pair(&cons, &read, &quals, HdcConfig::serial());
        assert_eq!(run.min, MinWhd { whd: 30, offset: 2 });
    }

    #[test]
    fn data_parallel_min_matches_serial() {
        let (cons, read, quals) = fixture();
        let serial = run_pair(&cons, &read, &quals, HdcConfig::serial());
        let parallel = run_pair(&cons, &read, &quals, HdcConfig::data_parallel());
        assert_eq!(serial.min, parallel.min);
        assert!(parallel.cycles < serial.cycles);
    }

    #[test]
    fn unpruned_serial_cycle_count_is_exact() {
        let (cons, read, quals) = fixture();
        let cfg = HdcConfig {
            lanes: 1,
            pruning: false,
            pair_overhead_cycles: 0,
            ..HdcConfig::serial()
        };
        let run = run_pair(&cons, &read, &quals, cfg);
        // 4 offsets × 4 bases = 16 compare cycles.
        assert_eq!(run.cycles, 16);
        assert_eq!(run.comparisons, 16);
        assert_eq!(run.offsets_pruned, 0);
    }

    #[test]
    fn unpruned_parallel_cycle_count_is_block_count() {
        let cons: Sequence = "A".repeat(100).parse().unwrap();
        let read: Sequence = "A".repeat(64).parse().unwrap();
        let quals = Qual::uniform(30, 64).unwrap();
        let cfg = HdcConfig {
            lanes: 32,
            pruning: false,
            pair_overhead_cycles: 0,
            ..HdcConfig::serial()
        };
        let run = run_pair(&cons, &read, &quals, cfg);
        // 37 offsets × ceil(64/32) = 74 cycles.
        assert_eq!(run.cycles, 74);
        assert_eq!(run.comparisons, 37 * 64);
    }

    #[test]
    fn pruning_reduces_cycles_but_not_result() {
        let (cons, read, quals) = fixture();
        let pruned = run_pair(&cons, &read, &quals, HdcConfig::serial());
        let naive = run_pair(
            &cons,
            &read,
            &quals,
            HdcConfig {
                pruning: false,
                ..HdcConfig::serial()
            },
        );
        assert_eq!(pruned.min, naive.min);
        assert!(pruned.cycles < naive.cycles);
        assert!(pruned.offsets_pruned > 0);
    }

    #[test]
    fn serial_comparisons_match_golden_pruned_counts() {
        // The serial HDC's executed-comparison count must equal the golden
        // model's pruned base_comparisons for the same pair.
        let target = RealignmentTarget::builder(0)
            .reference("CCTTAGACCTGATTACAGGA".parse().unwrap())
            .read(
                Read::new(
                    "r",
                    "TGAA".parse().unwrap(),
                    Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
                    0,
                )
                .unwrap(),
            )
            .build()
            .unwrap();
        let mut ops = OpCounts::default();
        let _ = ir_core::MinWhdGrid::compute(&target, true, &mut ops);
        let run = run_pair(
            target.reference(),
            target.read(0).bases(),
            target.read(0).quals(),
            HdcConfig::serial(),
        );
        assert_eq!(run.comparisons, ops.base_comparisons);
    }

    #[test]
    fn parallel_result_matches_full_whd_scan() {
        // Cross-check every offset against the kernel directly on a
        // mismatch-rich pair.
        let cons: Sequence = "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT".parse().unwrap();
        let read: Sequence = "TTTTACGTACGTACGTACGTACGTACGTACGTACGT".parse().unwrap();
        let quals = Qual::uniform(17, read.len()).unwrap();
        let run = run_pair(&cons, &read, &quals, HdcConfig::data_parallel());
        let expected = (0..=(cons.len() - read.len()))
            .map(|k| calc_whd(&cons, &read, &quals, k))
            .min()
            .unwrap();
        assert_eq!(run.min.whd, expected);
    }

    #[test]
    fn pair_overhead_is_charged_once() {
        let (cons, read, quals) = fixture();
        let base = run_pair(
            &cons,
            &read,
            &quals,
            HdcConfig {
                pair_overhead_cycles: 0,
                ..HdcConfig::serial()
            },
        );
        let with_overhead = run_pair(
            &cons,
            &read,
            &quals,
            HdcConfig {
                pair_overhead_cycles: 7,
                ..HdcConfig::serial()
            },
        );
        assert_eq!(with_overhead.cycles, base.cycles + 7);
    }

    #[test]
    fn pruned_offset_drains_the_blocks_in_flight() {
        // Offset 0 matches; offset k ≥ 1 first mismatches at base 6 − k,
        // so its verdict lands after block 7 − k of 6.
        let cons: Sequence = "AAAAAACCCCCC".parse().unwrap();
        let read: Sequence = "AAAAAA".parse().unwrap();
        let quals = Qual::uniform(10, 6).unwrap();
        let cfg = |prune_latency_blocks| HdcConfig {
            pair_overhead_cycles: 0,
            prune_latency_blocks,
            ..HdcConfig::serial()
        };
        let immediate = run_pair(&cons, &read, &quals, cfg(0));
        // 6 for offset 0, then 6 + 5 + 4 + 3 + 2 + 1.
        assert_eq!(immediate.cycles, 27);
        // Two more blocks issue after each verdict, up to the read's end:
        // 6 + 6 + 6 + 6 + 5 + 4 + 3.
        let late = run_pair(&cons, &read, &quals, cfg(2));
        assert_eq!(late.cycles, 36);
        for run in [immediate, late] {
            assert_eq!(run.comparisons, run.cycles);
            assert_eq!(run.offsets_pruned, 6);
            assert_eq!(run.min, MinWhd { whd: 0, offset: 0 });
        }
    }

    #[test]
    fn fast_path_matches_reference_on_fixture() {
        let (cons, read, quals) = fixture();
        for cfg in [HdcConfig::serial(), HdcConfig::data_parallel()] {
            assert_eq!(
                sweep_pair(&cons, &read, &quals, kernel::active(), cfg),
                run_pair(&cons, &read, &quals, cfg),
                "cfg {cfg:?}"
            );
        }
    }

    #[test]
    fn fast_path_matches_on_block_granular_shapes() {
        // lanes=32 with a long read (nblocks > drain+1), a no-pruning
        // config and a non-word-aligned lane count all take the
        // block-granular path; results must still match on every kernel.
        let cons: Sequence = "ACGT".repeat(80).parse().unwrap();
        let read: Sequence = "TTGCA".repeat(30).parse().unwrap();
        let quals = Qual::uniform(22, read.len()).unwrap();
        for cfg in [
            HdcConfig::data_parallel(),
            HdcConfig {
                pruning: false,
                ..HdcConfig::serial()
            },
            HdcConfig {
                lanes: 4,
                prune_latency_blocks: 1,
                ..HdcConfig::serial()
            },
        ] {
            let want = run_pair(&cons, &read, &quals, cfg);
            for kind in KernelKind::available() {
                assert_eq!(
                    sweep_pair(&cons, &read, &quals, kind, cfg),
                    want,
                    "cfg {cfg:?} kernel {kind}"
                );
            }
        }
    }

    #[test]
    fn read_sweep_matches_per_pair_runs() {
        let cands: Vec<Sequence> = [
            "CCTTAGA",
            "ACCTGAA",
            "TCTGCCTTCTGCCTAGGACCT", // ragged: longer row
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let read: Sequence = "TGAA".parse().unwrap();
        let quals = Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap();
        let base_rows: Vec<&[ir_genome::Base]> = cands.iter().map(|c| c.bases()).collect();
        let block = CandidateBlock::from_bases_rows(&base_rows);
        let sweep_read = SweepRead::new(read.bases(), &quals);
        for cfg in [HdcConfig::serial(), HdcConfig::data_parallel()] {
            let want: Vec<PairRun> = cands
                .iter()
                .map(|c| run_pair(c, &read, &quals, cfg))
                .collect();
            for kind in KernelKind::available() {
                assert_eq!(
                    run_read_sweep(&block, &sweep_read, kind, cfg),
                    want,
                    "cfg {cfg:?} kernel {kind}"
                );
            }
        }
    }

    /// The reference's checkpointed fold ([`RefFold::before`]) at every
    /// offset, block edges and the row's end included, equals one serial
    /// range over the offsets before it, fold and visits, on every kind.
    #[test]
    fn checkpoint_lookups_equal_a_prefix_fold() {
        let cons: Sequence = (0..300)
            .map(|i| ir_genome::Base::from_index((i * 7 + i / 13) % 4))
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
            let mut marks = vec![Mark::START; offsets.div_ceil(MARK_STRIDE) + 1];
            let row = block.row_padded(0);
            let fold = RefFold::sweep(&prepared, row, kind, &mut whds, &mut visits, &mut marks);
            for r in 0..=offsets {
                let mut scratch = vec![0u16; r];
                let swept =
                    kernel::serial_range(&prepared, row, 0, DenseSweep::START, &mut scratch, None);
                let want = Mark {
                    sweep: swept.sweep,
                    visited: swept.visited,
                };
                assert_eq!(fold.before(r), want, "{kind} offset {r}");
            }
            assert_eq!(fold.whole(), fold.before(offsets), "{kind}");
        }
    }

    #[test]
    fn zero_length_read_sweeps_cleanly() {
        let cons: Sequence = "ACGTACGT".parse().unwrap();
        let block = CandidateBlock::from_bases_rows(&[cons.bases()]);
        let empty = SweepRead::new(&[], &Qual::uniform(0, 0).unwrap());
        for cfg in [HdcConfig::serial(), HdcConfig::data_parallel()] {
            let want = run_pair(
                &cons,
                &"".parse().unwrap(),
                &Qual::uniform(0, 0).unwrap(),
                cfg,
            );
            for kind in KernelKind::available() {
                assert_eq!(
                    run_read_sweep(&block, &empty, kind, cfg),
                    vec![want],
                    "cfg {cfg:?} kernel {kind}"
                );
            }
        }
    }

    mod fast_path_differential {
        use super::*;
        use proptest::prelude::*;

        fn base_strategy() -> impl Strategy<Value = u8> {
            prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')]
        }

        fn pair_strategy() -> impl Strategy<Value = (Sequence, Sequence, Qual)> {
            (4usize..=96, 0usize..=64).prop_flat_map(|(read_len, slack)| {
                let cons_len = read_len + slack;
                (
                    prop::collection::vec(base_strategy(), cons_len),
                    prop::collection::vec(base_strategy(), read_len),
                    prop::collection::vec(0u8..=60, read_len),
                )
                    .prop_map(|(cons, read, quals)| {
                        let cons: Sequence = String::from_utf8(cons).unwrap().parse().unwrap();
                        let read: Sequence = String::from_utf8(read).unwrap().parse().unwrap();
                        let quals = Qual::from_raw_scores(&quals).unwrap();
                        (cons, read, quals)
                    })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases_env(64))]
            #[test]
            fn fast_equals_reference_everywhere(
                (cons, read, quals) in pair_strategy(),
                lanes in prop_oneof![Just(1usize), Just(4), Just(32)],
                pruning in any::<bool>(),
                latency in 0u64..=2,
            ) {
                let cfg = HdcConfig {
                    lanes,
                    pruning,
                    pair_overhead_cycles: 2,
                    prune_latency_blocks: latency,
                };
                let want = run_pair(&cons, &read, &quals, cfg);
                for kind in KernelKind::available() {
                    prop_assert_eq!(
                        sweep_pair(&cons, &read, &quals, kind, cfg),
                        want,
                        "kernel {}",
                        kind
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let (cons, read, quals) = fixture();
        let _ = run_pair(
            &cons,
            &read,
            &quals,
            HdcConfig {
                lanes: 0,
                pruning: true,
                pair_overhead_cycles: 0,
                ..HdcConfig::serial()
            },
        );
    }
}
