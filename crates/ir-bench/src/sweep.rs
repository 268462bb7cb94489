//! The per-chromosome Ch1–22 sweep behind Figure 9 and the paper-geometry
//! full-genome extrapolation.
//!
//! `fig9_speedup`, `fig9_cost`, `headline_claims`, `hls_comparison` and
//! `resilience_study` all run the same loop: generate each chromosome's
//! bench-profile workload, price it on the software baselines, and replay
//! it through one or more accelerator configurations. [`chromosome_sweep`]
//! is that loop; [`FullGenome`] turns its measured throughput into the
//! scale-1.0 wall times and costs Figure 9 (right) and the abstract quote.

use ir_baselines::{adam::AdamModel, gatk::GatkModel};
use ir_fpga::{AcceleratedSystem, FunctionalOracle, SystemRun};
use ir_genome::Chromosome;

use crate::{bench_workload, default_workload, parallel_sweep};

/// One chromosome's row of a [`chromosome_sweep`].
#[derive(Debug, Clone)]
pub struct ChromosomeRuns<R = SystemRun> {
    /// The chromosome this row measures.
    pub chromosome: Chromosome,
    /// GATK3's modeled wall seconds on the workload's shapes.
    pub gatk_s: f64,
    /// ADAM's modeled wall seconds (without Spark startup).
    pub adam_s: f64,
    /// Naive (unpruned, worst-case) comparisons over every target.
    pub naive_comparisons: u64,
    /// The projected run of each system, in the order they were passed.
    pub runs: Vec<R>,
}

/// Runs every system in `systems` over the bench-profile workload of
/// every chromosome in `chromosomes` at `scale`, one chromosome per sweep
/// point on `threads` workers, and returns the rows in input order.
///
/// Each chromosome gets one [`FunctionalOracle`] shared by all systems:
/// its entries key by the datapath's timing parameters, so configurations
/// that differ only in scheduling or unit count (TaskP and TaskP-Async)
/// replay one set of evaluations. A multi-lane pruning key (IRACC) that
/// follows its `lanes = 1` sibling derives each target whose reads are
/// short enough from the serial entry instead of sweeping it again, so
/// pass serial systems before IRACC; HLS (no pruning) keys apart. Each
/// run is bitwise identical to a cold [`AcceleratedSystem::run`].
///
/// `project` maps each [`SystemRun`] to what the caller keeps, inside the
/// worker, so a sweep need not hold every target's result grid at once;
/// pass `|run| run` to keep whole runs.
pub fn chromosome_sweep<R, F>(
    scale: f64,
    chromosomes: &[Chromosome],
    systems: &[AcceleratedSystem],
    threads: usize,
    project: F,
) -> Vec<ChromosomeRuns<R>>
where
    R: Send,
    F: Fn(SystemRun) -> R + Sync,
{
    let generator = bench_workload(scale);
    parallel_sweep(chromosomes, threads, |&chromosome| {
        let workload = generator.chromosome(chromosome);
        let shapes: Vec<_> = workload.targets.iter().map(|t| t.shape()).collect();
        let mut oracle = FunctionalOracle::new();
        ChromosomeRuns {
            chromosome,
            gatk_s: GatkModel::default().run_shapes(&shapes).wall_time_s,
            adam_s: AdamModel::default()
                .without_startup()
                .run_shapes(&shapes)
                .wall_time_s,
            naive_comparisons: shapes.iter().map(|s| s.worst_case_comparisons()).sum(),
            runs: systems
                .iter()
                .map(|system| project(system.run_with_oracle(&workload.targets, &mut oracle)))
                .collect(),
        }
    })
}

/// Ch1–22 at scale 1.0, extrapolated on **paper-geometry** shapes
/// (250 bp reads).
///
/// The software baselines are analytic in the target shapes, so they are
/// priced on those shapes directly. The accelerator's sustained throughput
/// (naive-equivalent comparisons per second) is measured by simulating the
/// bench-profile workload and then applied to the same paper-geometry work.
#[derive(Debug, Clone, Copy)]
pub struct FullGenome {
    /// GATK3 wall seconds.
    pub gatk_s: f64,
    /// ADAM wall seconds, including its fixed 12 s Spark startup.
    pub adam_s: f64,
    /// Accelerator wall seconds at the measured throughput.
    pub accel_s: f64,
    /// The measured throughput, naive-equivalent comparisons per second.
    pub throughput: f64,
}

impl FullGenome {
    /// Extrapolates from a measured accelerator sweep that did
    /// `naive_comparisons` of naive-equivalent work in `wall_s` simulated
    /// seconds. The paper-geometry shapes are sampled at `scale`, capped at
    /// `5e-4` (shapes are cheap, and the cap bounds generation time).
    pub fn extrapolate(scale: f64, naive_comparisons: u64, wall_s: f64) -> Self {
        let shape_scale = scale.min(5e-4);
        let mut paper_shapes = Vec::new();
        for workload in default_workload(shape_scale).autosomes() {
            paper_shapes.extend(workload.targets.iter().map(|t| t.shape()));
        }
        let upscale = 1.0 / shape_scale;
        let paper_naive: u64 = paper_shapes
            .iter()
            .map(|s| s.worst_case_comparisons())
            .sum();
        let throughput = naive_comparisons as f64 / wall_s;
        FullGenome {
            gatk_s: GatkModel::default().run_shapes(&paper_shapes).wall_time_s * upscale,
            adam_s: AdamModel::default()
                .without_startup()
                .run_shapes(&paper_shapes)
                .wall_time_s
                * upscale
                + 12.0,
            accel_s: paper_naive as f64 * upscale / throughput,
            throughput,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_fpga::{hls::hls_system, FpgaParams, Scheduling};

    fn systems() -> Vec<AcceleratedSystem> {
        let serial = |scheduling| AcceleratedSystem::new(FpgaParams::serial(), scheduling);
        vec![
            serial(Scheduling::Synchronous).unwrap(),
            serial(Scheduling::Asynchronous).unwrap(),
            AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).unwrap(),
            hls_system().unwrap(),
        ]
    }

    fn chromosomes() -> Vec<Chromosome> {
        [21, 22, 20].map(Chromosome::Autosome).to_vec()
    }

    #[test]
    fn shared_oracle_runs_match_cold_runs_bitwise() {
        let scale = 2e-4;
        let systems = systems();
        let rows = chromosome_sweep(scale, &chromosomes(), &systems, 2, |run| run);
        for (row, &chromosome) in rows.iter().zip(&chromosomes()) {
            assert_eq!(row.chromosome, chromosome, "rows keep input order");
            let targets = bench_workload(scale).chromosome(chromosome).targets;
            assert!(!targets.is_empty());
            assert_eq!(row.runs.len(), systems.len());
            for (system, run) in systems.iter().zip(&row.runs) {
                let cold = system.run(&targets);
                assert_eq!(run.wall_time_s.to_bits(), cold.wall_time_s.to_bits());
                assert_eq!(run.comparisons, cold.comparisons);
                assert_eq!(run.results, cold.results);
            }
        }
    }

    #[test]
    fn sweep_output_is_thread_invariant() {
        let scale = 2e-4;
        let systems = systems();
        let summary = |threads| {
            chromosome_sweep(scale, &chromosomes(), &systems, threads, |run| {
                (run.wall_time_s.to_bits(), run.comparisons, run.results)
            })
            .into_iter()
            .map(|row| {
                let ChromosomeRuns {
                    chromosome,
                    gatk_s,
                    adam_s,
                    naive_comparisons,
                    runs,
                } = row;
                let software = (gatk_s.to_bits(), adam_s.to_bits(), naive_comparisons);
                (chromosome, software, runs)
            })
            .collect::<Vec<_>>()
        };
        assert_eq!(summary(1), summary(2));
    }

    #[test]
    fn extrapolation_scales_inversely_with_throughput() {
        let slow = FullGenome::extrapolate(1e-4, 1_000_000, 2.0);
        let fast = FullGenome::extrapolate(1e-4, 1_000_000, 1.0);
        assert_eq!(fast.throughput, 2.0 * slow.throughput);
        assert_eq!(fast.accel_s, slow.accel_s / 2.0);
        assert_eq!(fast.gatk_s, slow.gatk_s, "software is analytic");
        assert!(fast.adam_s > 12.0 && fast.gatk_s > fast.adam_s);
    }
}
