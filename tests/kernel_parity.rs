//! Differential proptests pinning the production HDC path
//! ([`run_read_sweep`] over a [`CandidateBlock`]) bitwise against the
//! scalar reference (`run_pair`) under plain `cargo test` — for the
//! ambient dispatched kernel *and* every [`KernelKind`] the host CPU can
//! run, each passed explicitly. (The CI `kernel-dispatch` matrix
//! additionally forces each kind process-wide via `IR_KERNEL`, which the
//! ambient calls here pick up.)
//!
//! The fast kernel has three execution shapes, selected by the config and
//! the read geometry:
//!
//! 1. serial immediate-prune (`lanes == 1 && prune_latency_blocks == 0`),
//! 2. the dense sweep, when there is no comparator (`pruning == false`)
//!    or the drain swallows the whole read
//!    (`nblocks <= prune_latency_blocks + 1`),
//! 3. the block-granular fallback for everything else.
//!
//! Every case exercises a curated config set that covers all shapes
//! (both presets, pruning on/off, lane counts that straddle the block
//! boundaries) plus one randomized config, over random sequence pairs
//! including `N` bases, each swept as a one-row block — the full
//! `PairRun` (min WHD, offset, cycles, comparisons, pruned-offset count)
//! must be identical.
//!
//! The batch proptests additionally pin the structure-of-arrays sweep
//! ([`run_read_sweep`]) element-wise against per-pair scans across ragged
//! candidate sets (mixed lengths and counts) and zero-length reads.
//!
//! Case counts are gated on `IR_PROPTEST_CASES` (see README).

use ir_system::core::batch::{CandidateBlock, SweepRead};
use ir_system::core::{kernel, KernelKind};
use ir_system::fpga::hdc::{run_pair, run_read_sweep, HdcConfig, PairRun};
use ir_system::genome::{Base, Qual, Sequence};
use proptest::prelude::*;

/// One (consensus, read) pair through the production path: a one-row
/// block swept once.
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

/// Maps a byte to a base, all five symbols reachable.
fn base(code: u8) -> Base {
    match code % 5 {
        0 => Base::A,
        1 => Base::C,
        2 => Base::G,
        3 => Base::T,
        _ => Base::N,
    }
}

/// Configs covering every execution shape of the fast kernel. With reads
/// of 1..=96 bases, `lanes` values below straddle `nblocks <=
/// prune_latency_blocks + 1` both ways (e.g. a 3-base read at 32 lanes is
/// one block — drain-swallowed at latency 2 — while a 96-base read is
/// not).
fn shape_covering_configs() -> Vec<HdcConfig> {
    vec![
        // Shape 1: serial immediate prune (the base design).
        HdcConfig::serial(),
        // Shape 3: serial without pruning.
        HdcConfig {
            pruning: false,
            ..HdcConfig::serial()
        },
        // Shapes 2 and 4 by read length: the Figure 8 data-parallel design.
        HdcConfig::data_parallel(),
        HdcConfig {
            pruning: false,
            ..HdcConfig::data_parallel()
        },
        // Deep prune latency: drain swallows up to 4 blocks.
        HdcConfig {
            lanes: 8,
            pruning: true,
            pair_overhead_cycles: 0,
            prune_latency_blocks: 3,
        },
        // Multi-lane with immediate prune verdict (shape 4, latency 0).
        HdcConfig {
            lanes: 32,
            pruning: true,
            pair_overhead_cycles: 2,
            prune_latency_blocks: 0,
        },
        // Odd lane count that never divides the read length evenly.
        HdcConfig {
            lanes: 3,
            pruning: true,
            pair_overhead_cycles: 1,
            prune_latency_blocks: 1,
        },
    ]
}

prop_compose! {
    /// A random (consensus, read, quals) triple with `read.len() <=
    /// consensus.len()`, all symbols (including `N`) and the full
    /// Phred-score range. Up to 161 offsets, so the dense sweep's
    /// 64-offset blocks run full, partial and past the 32-lane half.
    fn pair_inputs()(
        read_len in 1usize..=96,
        extra in 0usize..=160,
        cons_codes in prop::collection::vec(any::<u8>(), 256),
        read_codes in prop::collection::vec(any::<u8>(), 96),
        qual_scores in prop::collection::vec(0u8..=60, 96)
    ) -> (Sequence, Sequence, Qual) {
        let cons: Sequence = cons_codes[..read_len + extra].iter().map(|&c| base(c)).collect();
        let read: Sequence = read_codes[..read_len].iter().map(|&c| base(c)).collect();
        let quals = Qual::from_raw_scores(&qual_scores[..read_len]).expect("valid Phred range");
        (cons, read, quals)
    }
}

prop_compose! {
    /// A randomized config within the hardware-plausible envelope.
    fn random_config()(
        lanes in 1usize..=48,
        pruning in any::<bool>(),
        pair_overhead_cycles in 0u64..=4,
        prune_latency_blocks in 0u64..=3
    ) -> HdcConfig {
        HdcConfig { lanes, pruning, pair_overhead_cycles, prune_latency_blocks }
    }
}

prop_compose! {
    /// A ragged candidate set (1..=5 candidates of unequal lengths, all
    /// long enough to admit the read) plus a read that may be empty.
    fn batch_inputs()(
        read_len in 0usize..=64,
        extras in prop::collection::vec(0usize..=48, 1..=5),
        codes in prop::collection::vec(any::<u8>(), 5 * (64 + 48)),
        read_codes in prop::collection::vec(any::<u8>(), 64),
        qual_scores in prop::collection::vec(0u8..=60, 64)
    ) -> (Vec<Sequence>, Sequence, Qual) {
        let mut offset = 0;
        let cands: Vec<Sequence> = extras
            .iter()
            .map(|&extra| {
                let len = read_len + extra;
                let s: Sequence = codes[offset..offset + len].iter().map(|&c| base(c)).collect();
                offset += len;
                s
            })
            .collect();
        let read: Sequence = read_codes[..read_len].iter().map(|&c| base(c)).collect();
        let quals = Qual::from_raw_scores(&qual_scores[..read_len]).expect("valid Phred range");
        (cands, read, quals)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(96))]

    /// The one-row sweep reproduces the scalar reference exactly — min
    /// WHD, winning offset, cycle count, comparison count and pruned
    /// offsets — for every covered config and a fresh random config, on
    /// the ambient dispatched kernel and on every [`KernelKind`] the CPU
    /// supports.
    #[test]
    fn packed_kernel_matches_scalar_reference(
        (cons, read, quals) in pair_inputs(),
        extra_cfg in random_config()
    ) {
        let mut configs = shape_covering_configs();
        configs.push(extra_cfg);
        for cfg in configs {
            let scalar = run_pair(&cons, &read, &quals, cfg);
            let fast = sweep_pair(&cons, &read, &quals, kernel::active(), cfg);
            prop_assert_eq!(
                scalar, fast,
                "dispatched kernel, config {:?} on read_len {} cons_len {}",
                cfg, read.len(), cons.len()
            );
            for kind in KernelKind::available() {
                let forced = sweep_pair(&cons, &read, &quals, kind, cfg);
                prop_assert_eq!(
                    scalar, forced,
                    "kernel {} config {:?} on read_len {} cons_len {}",
                    kind, cfg, read.len(), cons.len()
                );
            }
        }
    }

    /// The structure-of-arrays batch sweep equals per-pair scans
    /// element-wise — ragged candidate counts and lengths, zero-length
    /// reads included — on every available kernel.
    #[test]
    fn batch_sweep_matches_per_pair(
        (cands, read, quals) in batch_inputs(),
        extra_cfg in random_config()
    ) {
        let rows: Vec<&[Base]> = cands.iter().map(|c| c.bases()).collect();
        let block = CandidateBlock::from_bases_rows(&rows);
        let sweep_read = SweepRead::new(read.bases(), &quals);
        let mut configs = vec![HdcConfig::serial(), HdcConfig::data_parallel()];
        configs.push(extra_cfg);
        for cfg in configs {
            let want: Vec<_> = cands
                .iter()
                .map(|c| run_pair(c, &read, &quals, cfg))
                .collect();
            for kind in KernelKind::available() {
                let got = run_read_sweep(&block, &sweep_read, kind, cfg);
                prop_assert_eq!(
                    &got, &want,
                    "kernel {} config {:?}, {} candidates, read_len {}",
                    kind, cfg, cands.len(), read.len()
                );
            }
        }
    }
}

/// The worked Figure 4 example through every covered config — a fixed
/// anchor independent of the random corpus.
#[test]
fn figure4_example_is_shape_invariant() {
    let cons: Sequence = "ACCTGAA".parse().unwrap();
    let read: Sequence = "TGAA".parse().unwrap();
    let quals = Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap();
    for cfg in shape_covering_configs() {
        let scalar = run_pair(&cons, &read, &quals, cfg);
        let fast = sweep_pair(&cons, &read, &quals, kernel::active(), cfg);
        assert_eq!(scalar, fast, "config {cfg:?}");
        for kind in KernelKind::available() {
            let forced = sweep_pair(&cons, &read, &quals, kind, cfg);
            assert_eq!(scalar, forced, "kernel {kind} config {cfg:?}");
        }
        // "TGAA" matches "ACCTGAA" exactly at offset 3 — the sweep's
        // minimum is an exact hit regardless of kernel shape.
        assert_eq!(scalar.min.whd, 0, "Figure 4 sweep minimum WHD");
        assert_eq!(scalar.min.offset, 3, "Figure 4 winning offset");
    }
}

/// A zero-length read sweeps every candidate cleanly on every kernel:
/// one completed scan per offset, zero comparisons, min WHD 0 at offset 0.
#[test]
fn zero_length_read_batch_parity() {
    let cands: Vec<Sequence> = ["ACGTACGT", "TTT", "GGGGGACGTACGTACGTACGT"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let rows: Vec<&[Base]> = cands.iter().map(|c| c.bases()).collect();
    let block = CandidateBlock::from_bases_rows(&rows);
    let quals = Qual::uniform(0, 0).unwrap();
    let empty: Sequence = "".parse().unwrap();
    let sweep_read = SweepRead::new(empty.bases(), &quals);
    for cfg in [HdcConfig::serial(), HdcConfig::data_parallel()] {
        let want: Vec<_> = cands
            .iter()
            .map(|c| run_pair(c, &empty, &quals, cfg))
            .collect();
        for kind in KernelKind::available() {
            let got = run_read_sweep(&block, &sweep_read, kind, cfg);
            assert_eq!(got, want, "kernel {kind} config {cfg:?}");
            for pair in &got {
                assert_eq!(pair.comparisons, 0, "empty read compares nothing");
                assert_eq!(pair.min.whd, 0);
                assert_eq!(pair.min.offset, 0);
            }
        }
    }
}
