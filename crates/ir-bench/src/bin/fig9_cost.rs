//! Figure 9 (right): dollar cost of running INDEL realignment for all
//! chromosomes on GATK3, ADAM and the accelerated system.
//!
//! Paper anchors: GATK3 ≈ $28 (42 h on an r3.2xlarge at 66.5¢/h), ADAM ≈
//! $14.5, IR ACC ≈ 90¢ (31 min on an f1.2xlarge at $1.65/h); IRACC is 32×
//! more cost-efficient than GATK3 and 17× more than ADAM.
//!
//! Methodology ([`FullGenome`]): the software baselines are analytic in
//! the target shapes, so they are priced directly on **paper-geometry**
//! shapes (250 bp reads). The accelerator's sustained throughput
//! (naive-equivalent comparisons per second) is measured by simulation
//! on the bench-profile workload at `IR_SCALE` and then applied to the
//! same paper-geometry work.

use ir_bench::{
    chromosome_sweep, fmt_duration, scale_from_env, threads_from_env, FullGenome, Table,
};
use ir_cloud::{cost_efficiency_ratio, CostedRun, Instance};
use ir_fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_genome::Chromosome;

fn main() {
    let scale = scale_from_env();
    println!("Figure 9 (right): cost to perform INDEL realignment (Ch1–22)");
    println!("accelerator measured at scale {scale}, costs extrapolated to the full genome\n");

    let iracc =
        AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).expect("iracc fits");
    let chromosomes: Vec<Chromosome> = Chromosome::autosomes().collect();
    let sweep = chromosome_sweep(scale, &chromosomes, &[iracc], threads_from_env(), |run| {
        run.wall_time_s
    });
    let full = FullGenome::extrapolate(
        scale,
        sweep.iter().map(|c| c.naive_comparisons).sum(),
        sweep.iter().map(|c| c.runs[0]).sum(),
    );

    let runs = [
        CostedRun::new("GATK3", Instance::r3_2xlarge(), full.gatk_s),
        CostedRun::new("ADAM", Instance::r3_2xlarge(), full.adam_s),
        CostedRun::new("IR ACC", Instance::f1_2xlarge(), full.accel_s),
    ];

    let mut table = Table::new(vec!["system", "instance", "$/hour", "wall time", "cost $"]);
    for run in &runs {
        table.row(vec![
            run.system.clone(),
            run.instance.name.to_string(),
            format!("{:.3}", run.instance.price_per_hour_usd),
            fmt_duration(run.wall_time_s),
            format!("{:.2}", run.cost_usd()),
        ]);
    }
    table.emit("fig9_cost");

    println!(
        "\npaper anchors: GATK3 $28 (42 h), ADAM $14.5, IR ACC <$1 (~31 min); \
         cost efficiency 32× vs GATK3, 17× vs ADAM"
    );
    println!(
        "measured     : GATK3 ${:.2} ({}), ADAM ${:.2}, IR ACC ${:.2} ({}); \
         cost efficiency {:.0}× vs GATK3, {:.0}× vs ADAM",
        runs[0].cost_usd(),
        fmt_duration(full.gatk_s),
        runs[1].cost_usd(),
        runs[2].cost_usd(),
        fmt_duration(full.accel_s),
        cost_efficiency_ratio(&runs[0], &runs[2]),
        cost_efficiency_ratio(&runs[1], &runs[2]),
    );
    println!(
        "\n(sustained fabric throughput: {:.2e} naive-equivalent comparisons/s; \
         absolute hours track the\nsynthetic workload's total work — per-target sizes are \
         calibrated to published shape statistics, not\nto NA12878's exact totals — while \
         the cost-efficiency ratios are geometry-independent)",
        full.throughput
    );
}
