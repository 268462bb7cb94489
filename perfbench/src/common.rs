//! Pieces the workloads share: seeds, the two datapath timing keys, the
//! batch/kernel decomposition probe, modeled-FPGA tallies and the report
//! each workload hands back.

use std::collections::BTreeMap;

use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel;
use ir_fpga::hdc::{run_read_sweep, HdcConfig};
use ir_fpga::unit::UnitRun;
use ir_fpga::{FpgaParams, SystemRun};
use ir_genome::RealignmentTarget;
use ir_workloads::{WorkloadConfig, WorkloadGenerator};

use crate::span::Scope;

/// Standalone-target seed of the default run (`--seed 0`).
pub const WORKLOAD_SEED: u64 = 2026;
/// Arrival-stream seed of the default run.
pub const ARRIVAL_SEED: u64 = 41;

/// The bench-profile generator for benchmark seed `seed`: seed 0 is
/// `WorkloadConfig`'s default master seed, seed `n` offsets it by `n`.
pub fn generator(seed: u64, scale: f64) -> WorkloadGenerator {
    let bench = *ir_bench::bench_workload(scale).config();
    WorkloadGenerator::new(WorkloadConfig {
        seed: WorkloadConfig::default().seed.wrapping_add(seed),
        ..bench
    })
}

/// `count` indices in `0..n`, spread deterministically by `seed`.
pub fn sample(n: usize, count: usize, seed: u64) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut picks: Vec<usize> = (0..count as u64)
        .map(|k| {
            let h = (seed ^ 0x9e37_79b9_7f4a_7c15)
                .wrapping_add(k)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((h ^ (h >> 31)) % n as u64) as usize
        })
        .collect();
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// The two datapath timing keys of the paper's designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// One compare per cycle (`IRAcc-TaskP[-Async]`).
    Serial,
    /// The 32-lane calculator (`IR ACC`).
    Iracc,
}

impl Key {
    /// Both keys.
    pub const ALL: [Key; 2] = [Key::Serial, Key::Iracc];

    /// The key's parameters.
    pub fn params(self) -> FpgaParams {
        match self {
            Key::Serial => FpgaParams::serial(),
            Key::Iracc => FpgaParams::iracc(),
        }
    }

    /// Span name of one oracle call under this key.
    pub fn oracle_span(self) -> &'static str {
        match self {
            Key::Serial => "oracle.serial",
            Key::Iracc => "oracle.iracc",
        }
    }

    /// Span name of one target's kernel sweep under this key.
    pub fn sweep_span(self) -> &'static str {
        match self {
            Key::Serial => "kernel.serial.sweep",
            Key::Iracc => "kernel.iracc.sweep",
        }
    }

    fn hdc_config(self) -> HdcConfig {
        let p = self.params();
        HdcConfig {
            lanes: p.lanes,
            pruning: p.pruning,
            pair_overhead_cycles: p.pair_overhead_cycles,
            prune_latency_blocks: if p.lanes > 1 { 2 } else { 0 },
        }
    }
}

/// The kernel-level sums of one target's unit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelSums {
    /// HDC cycles.
    pub hdc_cycles: u64,
    /// Base comparisons.
    pub comparisons: u64,
    /// Offsets cut short by pruning.
    pub pruned: u64,
}

impl KernelSums {
    /// The sums an oracle's unit run reports (both paper keys run at
    /// compute overhead 1.0, so HDC cycles are unscaled).
    pub fn of(run: &UnitRun) -> Self {
        KernelSums {
            hdc_cycles: run.cycles.hdc,
            comparisons: run.comparisons,
            pruned: run.offsets_pruned,
        }
    }
}

/// What the decomposition probe counted.
#[derive(Debug, Clone, Default)]
pub struct ProbeOut {
    /// Targets × keys compared against the oracle's sums.
    pub checked: u64,
    /// Of those, how many disagreed.
    pub failed: u64,
    /// Comparisons per key, in [`Key::ALL`] order.
    pub comparisons: [u64; 2],
    /// Pruned offsets, all keys.
    pub pruned: u64,
    /// Candidate offsets scanned or pruned, all keys.
    pub offsets: u64,
}

/// The batch/kernel decomposition probe: packs each target into the
/// batch layout (`batch.pack`) and sweeps every read through the kernel
/// under each key (`kernel.<key>.sweep`), checking that its cycle,
/// comparison and pruning sums equal the oracle's unit run.
pub fn probe(
    scope: Scope<'_>,
    targets: &[RealignmentTarget],
    keys: &[(Key, &[KernelSums])],
    out: &mut ProbeOut,
) {
    let kind = kernel::active();
    for (i, t) in targets.iter().enumerate() {
        let (block, reads) = scope.span("batch.pack", i as u64, |_| {
            let block = CandidateBlock::from_target(t);
            let reads: Vec<SweepRead> = t
                .reads()
                .iter()
                .map(|r| SweepRead::new(r.bases().bases(), r.quals()))
                .collect();
            (block, reads)
        });
        let shape = t.shape();
        let offsets: u64 = shape
            .consensus_lens
            .iter()
            .flat_map(|&c| shape.read_lens.iter().map(move |&r| (c - r + 1) as u64))
            .sum();
        for &(key, expected) in keys {
            let cfg = key.hdc_config();
            let got = scope.span(key.sweep_span(), i as u64, |_| {
                let mut sums = KernelSums::default();
                for read in &reads {
                    for pair in run_read_sweep(&block, read, kind, cfg) {
                        sums.hdc_cycles += pair.cycles;
                        sums.comparisons += pair.comparisons;
                        sums.pruned += pair.offsets_pruned;
                    }
                }
                sums
            });
            out.checked += 1;
            out.failed += u64::from(expected.get(i) != Some(&got));
            out.comparisons[Key::ALL.iter().position(|&k| k == key).unwrap_or(0)] +=
                got.comparisons;
            out.pruned += got.pruned;
            out.offsets += offsets;
        }
    }
}

impl ProbeOut {
    /// Adds the probe's per-layer metrics: kernel busy time per key, host
    /// ns per comparison, comparisons and the pruned share of offsets.
    pub fn metrics(&self, layers: &crate::harness::Layers, m: &mut BTreeMap<&'static str, f64>) {
        m.insert("batch.pack_s", layers.busy_s("batch.pack"));
        for (k, key) in Key::ALL.iter().enumerate() {
            let (sweep, ns) = match key {
                Key::Serial => ("kernel.serial.sweep_s", "kernel.serial.ns_per_cmp"),
                Key::Iracc => ("kernel.iracc.sweep_s", "kernel.iracc.ns_per_cmp"),
            };
            let s = layers.busy_s(key.sweep_span());
            m.insert(sweep, s);
            if self.comparisons[k] > 0 {
                m.insert(ns, s * 1e9 / self.comparisons[k] as f64);
            }
        }
        m.insert(
            "kernel.comparisons",
            self.comparisons.iter().sum::<u64>() as f64,
        );
        if self.offsets > 0 {
            m.insert(
                "kernel.prune_frac",
                self.pruned as f64 / self.offsets as f64,
            );
        }
    }
}

/// Modeled-FPGA tallies over a set of system runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fpga {
    /// Σ modeled wall seconds.
    pub wall_s: f64,
    /// Σ (utilization × wall), for the wall-weighted mean.
    pub busy_s: f64,
    /// Σ DMA-busy seconds.
    pub dma_s: f64,
}

impl Fpga {
    /// Adds one run.
    pub fn add(&mut self, run: &SystemRun) {
        self.wall_s += run.wall_time_s;
        self.busy_s += run.utilization() * run.wall_time_s;
        self.dma_s += run.dma_busy_s;
    }

    /// Adds the `fpga.*` per-layer metrics.
    pub fn metrics(&self, m: &mut BTreeMap<&'static str, f64>) {
        if self.wall_s > 0.0 {
            m.insert("fpga.unit_utilization", self.busy_s / self.wall_s);
            m.insert("fpga.dma_fraction", self.dma_s / self.wall_s);
        }
        m.insert("fpga.modeled_wall_s", self.wall_s);
    }
}

/// A modeled end-to-end metric, printed by name beside the host ones.
#[derive(Debug, Clone)]
pub struct Modeled {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Context printed after the value.
    pub note: String,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Fraction of the paper's target counts generated.
    pub scale: f64,
    /// Worker threads of the timed phase.
    pub threads: usize,
    /// Operations attempted and failed, with notes.
    pub tally: crate::harness::Tally,
    /// Digest of the modeled outputs.
    pub digest: Option<u64>,
    /// Target runs in one pass.
    pub runs_per_pass: u64,
    /// Wall seconds of each untraced pass.
    pub pass_walls: Vec<f64>,
    /// Median target runs per host second at the reference speed.
    pub runs_per_s: f64,
    /// The same, raw.
    pub raw_runs_per_s: f64,
    /// Median set-up seconds at the reference speed.
    pub setup_s: f64,
    /// The same, raw.
    pub raw_setup_s: f64,
    /// Median reference-kernel seconds.
    pub reference_s: f64,
    /// Set-ups measured.
    pub setups: usize,
    /// Peak resident MiB at the end of the timed phase.
    pub peak_rss_mb: f64,
    /// Modeled end-to-end metrics.
    pub modeled: Vec<Modeled>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of a traced run.
    pub spans: Vec<crate::span::Span>,
}

impl Report {
    /// Fills the host-time fields from a finished measurement.
    pub fn from_measured<S, P>(
        m: &crate::harness::Measured<S, P>,
        scale: f64,
        threads: usize,
    ) -> Self {
        Report {
            scale,
            threads,
            tally: m.tally.clone(),
            digest: m.digest,
            runs_per_pass: m.passes.first().map_or(0, |p| p.runs),
            pass_walls: m
                .passes
                .iter()
                .filter(|p| !p.traced)
                .map(|p| p.wall_s)
                .collect(),
            runs_per_s: m.runs_per_s(true),
            raw_runs_per_s: m.runs_per_s(false),
            setup_s: m.setup_s(true),
            raw_setup_s: m.setup_s(false),
            reference_s: m.reference_s(),
            setups: m.setup_s.len(),
            peak_rss_mb: peak_rss_mb(),
            ..Report::default()
        }
    }

    /// Adds the metrics every traced run reports: tracing overhead, span
    /// coverage and the chromosome straggler ratio.
    pub fn trace_metrics<S, P>(
        &mut self,
        m: &crate::harness::Measured<S, P>,
        layers: &crate::harness::Layers,
    ) {
        let untraced = m.median_wall_s(false);
        if untraced > 0.0 {
            self.layers.insert(
                "trace.overhead_frac",
                m.median_wall_s(true) / untraced - 1.0,
            );
        }
        self.layers.insert("trace.coverage", layers.coverage());
        self.layers
            .insert("sweep.straggler_ratio", layers.straggler_ratio());
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_deterministic_sorted_and_in_range() {
        let a = sample(1000, 8, 3);
        assert_eq!(a, sample(1000, 8, 3));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&i| i < 1000));
        assert_ne!(a, sample(1000, 8, 4));
        assert!(sample(0, 8, 3).is_empty());
    }

    #[test]
    fn seed_zero_is_the_default_master_seed() {
        assert_eq!(
            generator(0, 1e-4).config().seed,
            WorkloadConfig::default().seed
        );
        assert_eq!(generator(0, 1e-4).config().read_len, 62);
    }
}
