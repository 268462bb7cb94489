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

use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel::{self, KernelKind};
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

/// Sweeps one prepared read against every candidate of the batch — the
/// engine behind [`crate::oracle::FunctionalOracle`]'s
/// [`crate::unit::simulate_target_fast`] path. Element `i` of the result
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
    (0..block.num_candidates())
        .map(|i| run_pair_codes(block.row_padded(i), block.len(i), read, kind, cfg))
        .collect()
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
///   [`PairRun::dense`]'s closed form and [`kernel::dense_sweep`] folds
///   every offset over the pre-padded lane arrays (padding lanes carry
///   score 0, so they add nothing).
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
    if cfg.pruning && cfg.lanes == 1 && cfg.prune_latency_blocks == 0 {
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
        // closed-form and one kernel-side dense sweep yields the minimum
        // (and, for the comparator, the offsets it flags as pruned).
        let sweep =
            kernel::dense_sweep(kind, row, max_k, read.codes_padded(), read.scores_padded());
        let min = MinWhd {
            whd: sweep.min_whd,
            offset: sweep.min_offset,
        };
        return PairRun::dense(cfg, cons_len, n, min, sweep.offsets_above_min);
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
