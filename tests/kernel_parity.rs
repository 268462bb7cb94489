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
use ir_system::fpga::unit::{simulate_target, simulate_target_fast_with};
use ir_system::fpga::FpgaParams;
use ir_system::genome::{Base, Qual, Read, RealignmentTarget, Sequence, TargetLimits};
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

/// The fast unit simulation refills one sweep buffer per read. Reads
/// that shrink (90, then 20, then 62 bases) leave a longer read's codes
/// and high scores behind unless every refill re-zeroes the padding
/// lanes; the dense sweep folds whole padded vectors, so a stale score
/// there would change the result. Every kernel must still match the
/// cycle-stepped reference under the serial, data-parallel and
/// comparator-free configurations.
#[test]
fn shrinking_reads_reuse_the_sweep_buffer_exactly() {
    let consensus = |period: &str| -> Sequence { period.repeat(40)[..150].parse().unwrap() };
    let read = |name: &str, seq: &str, score: u8| {
        let quals = Qual::uniform(score, seq.len()).unwrap();
        Read::new(name, seq.parse().unwrap(), quals, 0).unwrap()
    };
    let target = RealignmentTarget::builder(500)
        .reference(consensus("ACGT"))
        .consensus(consensus("ACGTT"))
        .consensus(consensus("GATTACA"))
        .read(read("r90", &"TTGCA".repeat(18), 60))
        .read(read("r20", &"ACGT".repeat(5), 3))
        .read(read("r62", &"ACGTT".repeat(13)[..62], 11))
        .build()
        .unwrap();
    let configs = [
        FpgaParams::serial(),
        FpgaParams::iracc(),
        FpgaParams {
            pruning: false,
            ..FpgaParams::iracc()
        },
    ];
    for params in configs {
        let want = simulate_target(&target, &params);
        for kind in KernelKind::available() {
            let got = simulate_target_fast_with(&target, &params, kind);
            assert_eq!(got, want, "kernel {kind} params {params:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-consensus reuse: under the dense and serial shapes each alternative
// copies the reference's entries on the windows inside their shared prefix
// and (serial: once the two running minima agree) suffix, and sweeps only
// the rest.
// ---------------------------------------------------------------------------

/// A deterministic pseudo-random `len`-base sequence over `alphabet`.
fn scrambled(len: usize, salt: u64, alphabet: &[Base]) -> Vec<Base> {
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            alphabet[(x >> 33) as usize % alphabet.len()]
        })
        .collect()
}

const ACGT: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];
/// No `A`: filler that never matches a run of `A`s.
const CGT: [Base; 3] = [Base::C, Base::G, Base::T];

fn seq_of(parts: &[&[Base]]) -> Sequence {
    parts.concat().into_iter().collect()
}

fn read_of(bases: &[Base], scores: &[u8]) -> Read {
    let quals = Qual::from_raw_scores(scores).unwrap();
    Read::new("r", bases.iter().copied().collect(), quals, 0).unwrap()
}

/// Every HDC config whose rows share entries: the serial design, and the
/// configs that take the dense shape on reads of at most 96 bases (the IR
/// ACC design, whose comparator's verdict lands after the last block, and
/// both designs without a comparator).
fn reuse_configs() -> [HdcConfig; 4] {
    [
        HdcConfig::serial(),
        HdcConfig::data_parallel(),
        HdcConfig {
            pruning: false,
            ..HdcConfig::data_parallel()
        },
        HdcConfig {
            pruning: false,
            ..HdcConfig::serial()
        },
    ]
}

/// The ambient kernel and every kind the CPU can run.
fn every_kind() -> Vec<KernelKind> {
    let mut kinds = KernelKind::available();
    kinds.push(kernel::active());
    kinds
}

/// The reuse identities on `target`, under every kernel: each read's
/// [`run_read_sweep`] row equals the per-pair reference `run_pair`
/// under every reusing config, and [`simulate_target_fast_with`] equals
/// [`simulate_target`] under the IR ACC, comparator-free and serial
/// parameters.
fn assert_reuse_exact(target: &RealignmentTarget) {
    let block = CandidateBlock::from_target(target);
    for read in target.reads() {
        let sweep_read = SweepRead::new(read.bases().bases(), read.quals());
        for cfg in reuse_configs() {
            let want: Vec<_> = target
                .consensuses()
                .iter()
                .map(|c| run_pair(c, read.bases(), read.quals(), cfg))
                .collect();
            for kind in every_kind() {
                let got = run_read_sweep(&block, &sweep_read, kind, cfg);
                assert_eq!(
                    got,
                    want,
                    "kernel {kind} config {cfg:?} read {}",
                    read.len()
                );
            }
        }
    }
    let configs = [
        FpgaParams::iracc(),
        FpgaParams {
            pruning: false,
            ..FpgaParams::iracc()
        },
        FpgaParams::serial(),
    ];
    for params in configs {
        let want = simulate_target(target, &params);
        for kind in every_kind() {
            let got = simulate_target_fast_with(target, &params, kind);
            assert_eq!(got, want, "kernel {kind} params {params:?}");
        }
    }
}

/// Reads cut from `rows` around `at` (the difference), each with a
/// substitution, plus one read from the far ends: windows that the
/// prefix, the suffix and the fresh sweep each score best.
fn reads_around(rows: &[&[Base]], at: usize, n: usize) -> Vec<Read> {
    let scores: Vec<u8> = (0..n).map(|i| 10 + (i * 7 % 31) as u8).collect();
    let mut reads = Vec::new();
    for row in rows {
        let last = row.len() - n;
        for start in [0, at.saturating_sub(n / 2).min(last), at.min(last), last] {
            let mut bases = row[start..start + n].to_vec();
            bases[n / 3] = if bases[n / 3] == Base::A {
                Base::C
            } else {
                Base::A
            };
            reads.push(read_of(&bases, &scores));
        }
    }
    reads
}

fn target_of(consensuses: &[Sequence], reads: Vec<Read>) -> RealignmentTarget {
    RealignmentTarget::builder(1_000)
        .reference(consensuses[0].clone())
        .consensuses(consensuses[1..].iter().cloned())
        .reads(reads)
        .build()
        .unwrap()
}

/// Rows past the hardware's 2,048 bases, whose WHD buffers no longer
/// fit inline.
#[test]
fn reuse_matches_reference_past_the_inline_buffers() {
    let reference = scrambled(2_300, 4, &ACGT);
    let alt = [&reference[..1_500], &reference[1_504..]].concat();
    let reads = reads_around(&[&reference, &alt], 1_500, 60);
    let target = RealignmentTarget::builder(1_000)
        .limits(TargetLimits::UNBOUNDED)
        .reference(seq_of(&[&reference]))
        .consensus(seq_of(&[&alt]))
        .reads(reads)
        .build()
        .unwrap();
    assert_reuse_exact(&target);
}

/// The per-offset WHDs of `read` along `consensus`, longhand.
fn whds_longhand(consensus: &Sequence, read: &Read) -> Vec<u64> {
    (0..=consensus.len() - read.len())
        .map(|k| ir_system::core::calc_whd(consensus, read.bases(), read.quals(), k))
        .collect()
}

/// The minimum is tied across the boundary between a reused and a
/// swept window, on both sides of the difference: the first of the
/// tied offsets must win and the tie must not count as above the
/// minimum. A zero score on the read's first (last) base lets the
/// window one offset before (after) an exact hit tie it.
#[test]
fn reuse_keeps_first_on_ties_across_the_reuse_boundary() {
    let n = 40;
    let filler = scrambled(30, 3, &CGT);
    let run = vec![Base::A; n];
    let mut scores = vec![20u8; n];
    // Prefix side: the reference holds `A^(n-1)` then `C`; the
    // alternative inserts an `A` before the `C`. The last reused offset
    // 29 (filler base + `A^(n-1)`, mismatching only on the zero-score
    // first base) ties the first swept offset 30 (`A^n`) at 0.
    scores[0] = 0;
    let head = read_of(&run, &scores);
    let reference = seq_of(&[&filler, &run[1..], &[Base::C], &filler]);
    let alt = seq_of(&[&filler, &run, &[Base::C], &filler]);
    let target = target_of(&[reference.clone(), alt.clone()], vec![head.clone()]);
    let block = CandidateBlock::from_target(&target);
    let (prefix, _) = block.shared_with_reference(1);
    let fresh_lo = prefix + 1 - n;
    assert_eq!(fresh_lo, 30);
    let whds = whds_longhand(&alt, &head);
    assert_eq!((whds[fresh_lo - 1], whds[fresh_lo]), (0, 0));
    assert!(whds[..fresh_lo - 1].iter().all(|&w| w > 0));
    assert_reuse_exact(&target);
    let run_alt = run_read_sweep(
        &block,
        &SweepRead::new(head.bases().bases(), head.quals()),
        kernel::active(),
        HdcConfig::data_parallel(),
    )[1];
    assert_eq!((run_alt.min.whd, run_alt.min.offset), (0, fresh_lo - 1));

    // Suffix side, mirrored: the reference holds `C` then `A^(n-1)`; the
    // alternative inserts an `A` after the `C`. The last swept offset
    // (`A^n`) ties the first reused suffix offset (`A^(n-1)` + filler
    // base, mismatching only on the zero-score last base) at 0.
    let mut scores = vec![20u8; n];
    scores[n - 1] = 0;
    let tail = read_of(&run, &scores);
    let reference = seq_of(&[&filler, &[Base::C], &run[1..], &filler]);
    let alt = seq_of(&[&filler, &[Base::C], &run, &filler]);
    let target = target_of(&[reference, alt.clone()], vec![tail.clone()]);
    let block = CandidateBlock::from_target(&target);
    let (_, suffix) = block.shared_with_reference(1);
    let suffix_start = alt.len() - suffix;
    assert_eq!(suffix_start, 32);
    let whds = whds_longhand(&alt, &tail);
    assert_eq!((whds[suffix_start - 1], whds[suffix_start]), (0, 0));
    assert!(whds[..suffix_start - 1].iter().all(|&w| w > 0));
    assert_reuse_exact(&target);
}

/// An alternative consensus: `reference` with one edit at `at` of `len`
/// bases — an insertion of `fill`'s first `len` bases, a deletion, a
/// substitution of one base, or everything after (or before) `at`
/// replaced by `fill`, so that it shares only a prefix (or a suffix)
/// with the reference.
fn edit(reference: &[Base], kind: u8, at: usize, len: usize, fill: &[Base]) -> Vec<Base> {
    let end = (at + len).min(reference.len());
    match kind {
        0 => [&reference[..at], &fill[..len], &reference[at..]].concat(),
        1 => [&reference[..at], &reference[end..]].concat(),
        2 => {
            let mut row = reference.to_vec();
            if at < row.len() {
                row[at] = if row[at] == Base::A { Base::C } else { Base::A };
            }
            row
        }
        3 => [&reference[..at], fill].concat(),
        _ => [fill, &reference[at..]].concat(),
    }
}

prop_compose! {
    /// A reference with 1–5 alternatives, each the reference with one
    /// random edit ([`edit`]: an insertion, a deletion of up to 90
    /// bases, a substitution, or a replaced tail or head; possibly
    /// empty, so identical to the reference), half of them at a
    /// 64-offset block edge, and reads of 1–110 bases cut from random
    /// rows at random places with a few substitutions: the reads of at
    /// most 96 bases take the dense shape under IR ACC, the rest the
    /// block loop.
    fn indel_targets()(
        ref_len in 110usize..=260,
        ref_salt in any::<u64>(),
        edits in prop::collection::vec(
            (0u8..5, 0usize..260, any::<bool>(), 0usize..=90, any::<u64>()),
            1..=5,
        ),
        reads in prop::collection::vec(
            (1usize..=110, 0usize..8, any::<u64>(), prop::collection::vec((0usize..110, 0u8..=4), 0..=4)),
            1..=4,
        ),
        qual_scores in prop::collection::vec(0u8..=60, 110),
    ) -> RealignmentTarget {
        let reference = scrambled(ref_len, ref_salt, &ACGT);
        let mut rows = vec![reference.clone()];
        for &(kind, at, edge, len, salt) in &edits {
            let at = if edge {
                (at / 64 * 64 + len % 3).saturating_sub(1).min(ref_len)
            } else {
                at % ref_len
            };
            // Insertions of up to 12 bases; deletions up to 90.
            let len = if kind == 0 { len % 13 } else { len };
            rows.push(edit(&reference, kind, at, len, &scrambled(70.max(len), salt, &ACGT)));
        }
        let shortest = rows.iter().map(Vec::len).min().unwrap();
        let reads = reads
            .iter()
            .map(|(len, row, start, subs)| {
                let n = (*len).min(shortest);
                let row = &rows[row % rows.len()];
                let start = (*start as usize) % (row.len() - n + 1);
                let mut bases = row[start..start + n].to_vec();
                for &(pos, code) in subs {
                    bases[pos % n] = base(code);
                }
                read_of(&bases, &qual_scores[..n])
            })
            .collect();
        let consensuses: Vec<Sequence> = rows.iter().map(|r| seq_of(&[r])).collect();
        target_of(&consensuses, reads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(48))]

    /// Reference-plus-edit targets: the reusing sweep equals the
    /// per-pair reference on every kernel.
    #[test]
    fn reuse_matches_reference_on_random_indels(target in indel_targets()) {
        assert_reuse_exact(&target);
    }
}

// ---------------------------------------------------------------------------
// Serial reuse: where the suffix's running minima meet.
// ---------------------------------------------------------------------------

/// How an alternative's serial entries rejoin the reference's in their
/// shared suffix, for one read, from the longhand WHDs: `C_alt` and
/// `C_ref` are the two rows' running minima where the suffix starts, and
/// the budgets agree from `conv` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SuffixShape {
    /// `C_alt == C_ref`: the suffix is copied from its first offset.
    EqualMinima,
    /// The first suffix WHD is below `min(C_alt, C_ref)`.
    FirstOffset,
    /// The WHD at `conv - 1`, past the first suffix offset, ties the
    /// smaller minimum, and that is the alternative's.
    TieAltLower,
    /// As [`SuffixShape::TieAltLower`], the reference's minimum smaller.
    TieRefLower,
    /// No suffix WHD reaches the smaller minimum: every suffix offset is
    /// swept.
    Never,
    /// Anything else (a suffix converging later without a tie, or no
    /// suffix).
    Other,
}

/// The suffix shape of `read` on `target`'s alternative `i`, with the
/// prefix and suffix bounds the reusing sweep computes.
fn suffix_shape(target: &RealignmentTarget, i: usize, read: &Read) -> SuffixShape {
    let block = CandidateBlock::from_target(target);
    let (n, len, ref_len) = (read.len(), block.len(i), block.len(0));
    let offsets = len - n + 1;
    let (prefix, suffix) = block.shared_with_reference(i);
    let fresh_lo = (prefix + 1).saturating_sub(n).min(offsets);
    let fresh_hi = (len - suffix).clamp(fresh_lo, offsets);
    if fresh_hi == offsets {
        return SuffixShape::Other;
    }
    let alt = whds_longhand(target.consensus(i), read);
    let reference = whds_longhand(target.consensus(0), read);
    let min_of = |w: &[u64]| w.iter().copied().min().unwrap_or(u64::MAX);
    let c_alt = min_of(&alt[..fresh_hi]);
    let c_ref = min_of(&reference[..fresh_hi + ref_len - len]);
    if c_alt == c_ref {
        return SuffixShape::EqualMinima;
    }
    let floor = c_alt.min(c_ref);
    match alt[fresh_hi..].iter().position(|&w| w <= floor) {
        None => SuffixShape::Never,
        Some(0) if alt[fresh_hi] < floor => SuffixShape::FirstOffset,
        Some(p) if p > 0 && alt[fresh_hi + p] == floor => {
            if c_alt < c_ref {
                SuffixShape::TieAltLower
            } else {
                SuffixShape::TieRefLower
            }
        }
        Some(_) => SuffixShape::Other,
    }
}

/// A reference over `A`/`C` (so windows tie often), an alternative with
/// one insertion or deletion, and reads cut from either row with a few
/// substitutions, every score 10: target `salt` of a deterministic
/// family.
fn tie_prone_target(salt: u64) -> RealignmentTarget {
    const AC: [Base; 2] = [Base::A, Base::C];
    let reference = scrambled(140, salt, &AC);
    let at = 20 + (salt as usize * 7) % 100;
    let indel = 1 + (salt as usize / 3) % 9;
    let alt = if salt.is_multiple_of(2) {
        [
            &reference[..at],
            &scrambled(indel, salt + 1, &AC)[..],
            &reference[at..],
        ]
        .concat()
    } else {
        [&reference[..at], &reference[at + indel..]].concat()
    };
    let n = 12 + (salt as usize % 5) * 4;
    let reads = (0..4u64)
        .map(|r| {
            let row = if r.is_multiple_of(2) {
                &reference
            } else {
                &alt
            };
            let start = (salt.wrapping_mul(31).wrapping_add(r * 17) as usize) % (row.len() - n + 1);
            let mut bases = row[start..start + n].to_vec();
            for s in 0..=r as usize {
                let pos = (salt as usize + 5 * s) % n;
                bases[pos] = if bases[pos] == Base::A {
                    Base::G
                } else {
                    Base::A
                };
            }
            read_of(&bases, &vec![10; n])
        })
        .collect();
    target_of(&[seq_of(&[&reference]), seq_of(&[&alt])], reads)
}

/// Every way an alternative's serial entries can rejoin the reference's:
/// the running minima equal where the suffix starts, meeting at the first
/// suffix offset, a tie with the smaller minimum at the meeting offset
/// (the alternative's, then the reference's), and never meeting. The
/// cases come from a deterministic family of tie-prone targets; each
/// shape must occur, and every target found must reuse exactly.
#[test]
fn serial_reuse_matches_reference_at_every_suffix_shape() {
    let wanted = [
        SuffixShape::EqualMinima,
        SuffixShape::FirstOffset,
        SuffixShape::TieAltLower,
        SuffixShape::TieRefLower,
        SuffixShape::Never,
    ];
    let mut found = Vec::new();
    for salt in 0..400u64 {
        let target = tie_prone_target(salt);
        let shapes: Vec<_> = target
            .reads()
            .iter()
            .map(|read| suffix_shape(&target, 1, read))
            .filter(|shape| wanted.contains(shape) && !found.contains(shape))
            .collect();
        if !shapes.is_empty() {
            assert_reuse_exact(&target);
            for shape in shapes {
                if !found.contains(&shape) {
                    found.push(shape);
                }
            }
        }
        if found.len() == wanted.len() {
            break;
        }
    }
    for shape in wanted {
        assert!(
            found.contains(&shape),
            "no target with {shape:?}: {found:?}"
        );
    }
}

/// The sweep checks whether the running minima have met at block ends.
/// Here the straddling windows span exactly one block, so the first
/// check falls on the first suffix offset, where both rows' running
/// minima are 20 but the reference's last straddling window (offset
/// `p`, one mismatch) drops its minimum to 10 right before its matching
/// offset. The suffix then holds a window at 20 whose two mismatches are
/// its first two bases: the alternative completes it (a tie with its
/// minimum) where the reference stops after two bases, so it must be
/// swept, not copied.
#[test]
fn serial_reuse_checks_the_minima_at_the_reference_offset_itself() {
    let n = 65;
    let a_run = |len: usize| vec![Base::A; len];
    let mut head = scrambled(80, 5, &CGT);
    *head.last_mut().unwrap() = Base::G;
    let p = head.len();
    let reference = [
        &head[..],
        &[Base::A, Base::C],
        &a_run(63),
        &[Base::G],
        &scrambled(30, 6, &CGT),
        &[Base::C, Base::G],
        &a_run(63),
        &scrambled(10, 7, &CGT),
    ]
    .concat();
    // Delete the `A` at `p`: the straddling offsets are `p - 64..p`.
    let alt = [&reference[..p], &reference[p + 1..]].concat();
    let read = read_of(&a_run(n), &[10; 65]);
    let target = target_of(
        &[seq_of(&[&reference]), seq_of(&[&alt])],
        vec![read.clone()],
    );
    let block = CandidateBlock::from_target(&target);
    assert_eq!(block.shared_with_reference(1), (p, alt.len() - p));
    let (ref_whds, alt_whds) = (
        whds_longhand(target.consensus(0), &read),
        whds_longhand(target.consensus(1), &read),
    );
    let min_of = |w: &[u64]| w.iter().copied().min().unwrap();
    assert_eq!((min_of(&alt_whds[..p]), min_of(&ref_whds[..p])), (20, 20));
    assert_eq!((ref_whds[p], min_of(&ref_whds)), (10, 10));
    assert_eq!(min_of(&alt_whds[p..]), 20, "the minima never meet");
    assert_reuse_exact(&target);
}

/// Reads whose score total reaches the `u16` bound (720 bases at Phred
/// 93) take the per-pair path under every shape; a 1,025-base read, past
/// the serial range kernel's visit counts, does too.
#[test]
fn reads_past_the_reuse_bounds_take_the_per_pair_path() {
    let reference = scrambled(1_200, 8, &ACGT);
    let alt = [&reference[..600], &reference[603..]].concat();
    let mut reads = Vec::new();
    for (n, score) in [(720, 93u8), (1_025, 20)] {
        let mut bases = reference[40..40 + n].to_vec();
        bases[n / 2] = if bases[n / 2] == Base::A {
            Base::C
        } else {
            Base::A
        };
        reads.push(read_of(&bases, &vec![score; n]));
    }
    let total: u64 = reads[0]
        .quals()
        .scores()
        .iter()
        .map(|&s| u64::from(s))
        .sum();
    assert!(total >= kernel::WHD_U16_LIMIT);
    let target = RealignmentTarget::builder(1_000)
        .limits(TargetLimits::UNBOUNDED)
        .reference(seq_of(&[&reference]))
        .consensus(seq_of(&[&alt]))
        .reads(reads)
        .build()
        .unwrap();
    assert_reuse_exact(&target);
}

/// The AVX-512 serial range stops pass 1 once every lane's partial sum
/// exceeds the carried-in minimum. Here the carry into the alternative's
/// first swept block is 10 (the read's hit in the shared prefix, one
/// mismatch), and one window of that block mismatches the read on its
/// first base and again on base 20: its partial sum equals the carry,
/// not above it, at every check before base 20, so the block must not
/// stop there; the window is pruned at base 20.
#[test]
fn serial_exit_waits_for_a_lane_equal_to_the_carry() {
    let n = 40;
    let reference = scrambled(200, 11, &ACGT);
    let flip = |b: Base| if b == Base::A { Base::C } else { Base::A };
    let mut bases = reference[20..20 + n].to_vec();
    bases[0] = flip(bases[0]);
    let read = read_of(&bases, &[10; 40]);
    let other = |b: Base| if b == Base::G { Base::T } else { Base::G };
    let mut tie = bases.clone();
    tie[0] = other(tie[0]);
    tie[20] = other(tie[20]);
    let alt = [&reference[..100], &tie[..], &reference[100..]].concat();
    let target = target_of(
        &[seq_of(&[&reference]), seq_of(&[&alt])],
        vec![read.clone()],
    );
    let alt_whds = whds_longhand(target.consensus(1), &read);
    let block = CandidateBlock::from_target(&target);
    let (prefix, _) = block.shared_with_reference(1);
    let fresh_lo = prefix + 1 - n;
    assert!(fresh_lo <= 100 && 100 < fresh_lo + 64, "{prefix}");
    assert_eq!(*alt_whds[..fresh_lo].iter().min().unwrap(), 10);
    assert_eq!(alt_whds[100], 20);
    assert_reuse_exact(&target);
}
