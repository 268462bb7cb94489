//! Golden per-target digests of the unit simulation.
//!
//! Every target of a small sample (each [`ShapeFamily`], plus one
//! chromosome of the bench profile) runs through the production path,
//! [`simulate_target_fast`], under both paper configurations. Each
//! [`UnitRun`] is folded into one digest: its grid cells, the four
//! cycle phases, the comparison and pruned-offset totals, the picked
//! consensus and every read outcome. The digests of a sample chain into
//! one committed constant per (sample, configuration), so a change to
//! any target's modeled result, cycle count or pruning charge shows here
//! and names its sample. A constant may change only with a modeled-output
//! change that explains it.
//!
//! Every run is also checked against the per-clock reference
//! ([`simulate_target`]), so the constants pin the production path and
//! the one cycle-level model at once.

use ir_system::fpga::unit::{simulate_target, simulate_target_fast, UnitRun};
use ir_system::fpga::FpgaParams;
use ir_system::fuzz::Fnv;
use ir_system::genome::{Chromosome, RealignmentTarget};
use ir_system::workloads::ShapeFamily;

/// Everything a [`UnitRun`] carries, in one FNV-1a value.
fn unit_run_digest(run: &UnitRun) -> u64 {
    let mut h = Fnv::new();
    let grid = &run.grid;
    h.u64(grid.num_consensuses() as u64);
    h.u64(grid.num_reads() as u64);
    for i in 0..grid.num_consensuses() {
        for cell in grid.row(i) {
            h.u64(cell.whd);
            h.u64(cell.offset as u64);
        }
    }
    for &score in &run.scores {
        h.u64(score);
    }
    let c = run.cycles;
    for v in [c.load, c.hdc, c.selector, c.drain] {
        h.u64(v);
    }
    h.u64(run.comparisons);
    h.u64(run.offsets_pruned);
    h.u64(run.best as u64);
    for outcome in &run.outcomes {
        let (realign, offset, pos) = outcome.into_parts();
        h.u64(u64::from(realign));
        h.u64(offset as u64);
        h.u64(pos);
    }
    h.finish()
}

/// One target sample: `count` targets of a shape family, or (`None`)
/// the first `count` targets of chromosome 21 in the bench profile.
fn sample(family: Option<ShapeFamily>, count: usize) -> Vec<RealignmentTarget> {
    match family {
        Some(family) => family.profile().generator(1e-4).targets(count, 0x60_1DE5),
        None => {
            let mut targets = ir_bench::bench_workload(5e-4)
                .chromosome(Chromosome::Autosome(21))
                .targets;
            targets.truncate(count);
            targets
        }
    }
}

/// Runs `targets` under both paper configurations, checks every run
/// against the reference, and asserts the chained digests
/// (serial, then IR ACC) equal `golden`.
fn assert_golden(name: &str, targets: &[RealignmentTarget], golden: [u64; 2]) {
    assert!(!targets.is_empty(), "{name}");
    let mut got = [0u64; 2];
    for (params, digest) in [FpgaParams::serial(), FpgaParams::iracc()]
        .iter()
        .zip(&mut got)
    {
        let mut chain = Fnv::new();
        for (t, target) in targets.iter().enumerate() {
            let run = simulate_target_fast(target, params);
            assert_eq!(
                run,
                simulate_target(target, params),
                "{name} target {t} under {params:?}: fast path vs reference"
            );
            chain.u64(unit_run_digest(&run));
        }
        *digest = chain.finish();
    }
    assert_eq!(
        got, golden,
        "{name}: digests [{:#018x}, {:#018x}] (serial, IR ACC)",
        got[0], got[1]
    );
}

// The long-read and deep-panel samples hold one target each: their 5 kb
// reads and hundreds of reads per target make the per-clock reference,
// which steps every block of every offset, slow.

#[test]
fn short_read_targets_match_golden_digests() {
    let targets = sample(Some(ShapeFamily::ShortReadGermline), 3);
    assert_golden(
        "short-read",
        &targets,
        [0x9ffc94060a9ef467, 0x88bf91530d617c73],
    );
}

#[test]
fn long_read_target_matches_golden_digests() {
    let targets = sample(Some(ShapeFamily::LongRead), 1);
    assert_golden(
        "long-read",
        &targets,
        [0x758416fecbf7b5e8, 0x00cfbe95ea724ada],
    );
}

#[test]
fn deep_panel_target_matches_golden_digests() {
    let targets = sample(Some(ShapeFamily::DeepPanel), 1);
    assert_golden(
        "deep-panel",
        &targets,
        [0x9a9464b7a1ed7522, 0x5b23be7908a4bb99],
    );
}

#[test]
fn metagenomic_targets_match_golden_digests() {
    let targets = sample(Some(ShapeFamily::Metagenomic), 8);
    assert_golden(
        "metagenomic",
        &targets,
        [0x4f770100395dc6ec, 0x3bd08a04a8562f53],
    );
}

#[test]
fn bench_chromosome_targets_match_golden_digests() {
    let targets = sample(None, 12);
    assert_golden(
        "bench chr21",
        &targets,
        [0x43a859fef4ed97d5, 0xf50461afb72dcec5],
    );
}
