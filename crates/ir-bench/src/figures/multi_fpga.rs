//! Extension experiment: scaling the sea of accelerators across the
//! f1.16xlarge's eight FPGAs.
//!
//! The paper deploys one VU9P (f1.2xlarge); AWS also offered an 8-FPGA
//! f1.16xlarge at exactly 8× the price. This harness shards one
//! chromosome's targets across 1–8 simulated FPGAs (longest-processing-
//! time on worst-case work) and reports scaling efficiency and cost per
//! unit of work — quantifying whether the "sea of seas" pays.

use crate::{bench_workload, parallel_sweep, FigureContext, Table};
use ir_cloud::{run_cost_usd, schedule_jobs, Instance};
use ir_fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling};

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    // Each FPGA-count point re-runs the whole pool, so cap the scale to
    // keep the four-point sweep affordable.
    let scale = ctx.scale.min(2e-3);
    let generator = bench_workload(scale);
    // Whole-genome target pool: sharding granularity matters only when
    // each shard still holds enough targets to amortize stragglers.
    let mut targets = Vec::new();
    for workload in generator.autosomes() {
        targets.extend(workload.targets);
    }
    let total_work: f64 = targets
        .iter()
        .map(|t| t.shape().worst_case_comparisons() as f64)
        .sum();
    println!(
        "Multi-FPGA sharding (scale {scale}, Ch1–22 pool of {} targets)\n",
        targets.len()
    );

    let system =
        AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).expect("iracc fits");

    // Every FPGA-count point replays the same pool under the same timing
    // key, so the datapath is evaluated once: warm a pool-wide oracle,
    // then project it onto each shard's global indices (`subset` re-keys
    // them to the shard-local positions `run_with_oracle` sees).
    let mut pool_oracle = FunctionalOracle::new();
    pool_oracle.precompute(&targets, &FpgaParams::iracc(), ctx.threads);

    // Each FPGA-count point LPT-shards the pool and replays every shard —
    // the points are independent, so they sweep in parallel; derived
    // columns (speedup vs the 1-FPGA wall) come from the input-ordered
    // results afterwards.
    let fpga_counts = [1usize, 2, 4, 8];
    let walls = parallel_sweep(&fpga_counts, ctx.threads, |&fpgas| {
        let work: Vec<f64> = targets
            .iter()
            .map(|t| t.shape().worst_case_comparisons() as f64)
            .collect();
        let schedule = schedule_jobs(&work, fpgas);
        let mut shards: Vec<Vec<ir_genome::RealignmentTarget>> = vec![Vec::new(); fpgas];
        let mut shard_indices: Vec<Vec<usize>> = vec![Vec::new(); fpgas];
        for (t, &fpga) in schedule.assignments.iter().enumerate() {
            shards[fpga].push(targets[t].clone());
            shard_indices[fpga].push(t);
        }
        shards
            .iter()
            .zip(&shard_indices)
            .filter(|(s, _)| !s.is_empty())
            .map(|(shard, indices)| {
                let mut oracle = pool_oracle.subset(&FpgaParams::iracc(), indices);
                system.run_with_oracle(shard, &mut oracle).wall_time_s
            })
            .fold(0.0f64, f64::max)
    });

    let mut table = Table::new(vec![
        "FPGAs",
        "wall s",
        "speedup",
        "scaling efficiency",
        "instance",
        "cost $/Tcmp",
    ]);
    let one_fpga_wall = walls[0];
    for (&fpgas, &wall) in fpga_counts.iter().zip(&walls) {
        let speedup = one_fpga_wall / wall;
        let instance = if fpgas == 1 {
            Instance::f1_2xlarge()
        } else {
            Instance::f1_16xlarge()
        };
        // Sub-8 shard counts on the 16xlarge still pay for the whole box;
        // cost is normalized per tera-comparison of naive-equivalent work
        // so it is scale-independent.
        let cost = run_cost_usd(&instance, wall) / (total_work / 1e12);
        table.row(vec![
            fpgas.to_string(),
            format!("{wall:.4}"),
            format!("{speedup:.2}×"),
            format!("{:.0}%", speedup / fpgas as f64 * 100.0),
            instance.name.to_string(),
            format!("{cost:.4}"),
        ]);
    }
    table.emit(ctx, "multi_fpga")?;

    println!(
        "\ntargets are independent, so sharding scales near-linearly until per-shard\n\
         target counts get small; at 8× the price, the f1.16xlarge only pays when all\n\
         eight FPGAs stay busy — elastic fleets of f1.2xlarge match it at equal cost\n\
         with finer-grained scaling (the paper's FPGAs-as-a-service argument)."
    );
    Ok(())
}
