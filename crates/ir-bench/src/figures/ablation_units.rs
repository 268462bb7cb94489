//! §IV ablation: task-parallel scaling with unit count.
//!
//! Paper anchor: "the available parallelism trivially scales up with the
//! volume of hardware … the computation time scales (almost) linearly
//! with the number of units available", until the 32-unit block-RAM
//! ceiling.

use crate::{bench_workload, parallel_sweep, FigureContext, Table};
use ir_fpga::resources::max_units;
use ir_fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling};
use ir_genome::Chromosome;

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    let scale = ctx.scale;
    let generator = bench_workload(scale);
    let workload = generator.chromosome(Chromosome::Autosome(20));
    println!("Unit-count scaling (scale {scale}, Ch20, async, data-parallel units)\n");

    // The unit count only moves work around in time — it is not part of
    // the oracle's timing key — so all six sweep points replay one warmed
    // set of datapath evaluations.
    let mut pool_oracle = FunctionalOracle::new();
    pool_oracle.precompute(&workload.targets, &FpgaParams::iracc(), ctx.threads);
    let all_indices: Vec<usize> = (0..workload.targets.len()).collect();

    // Each unit count is an independent simulation of the same targets;
    // results come back in input order, so the 1-unit baseline for the
    // speedup column is runs[0] exactly as in a serial sweep.
    let unit_counts = [1usize, 2, 4, 8, 16, 32];
    let runs = parallel_sweep(&unit_counts, ctx.threads, |&units| {
        let params = FpgaParams {
            num_units: units,
            ..FpgaParams::iracc()
        };
        let mut oracle = pool_oracle.subset(&params, &all_indices);
        AcceleratedSystem::new(params, Scheduling::Asynchronous)
            .expect("fits")
            .run_with_oracle(&workload.targets, &mut oracle)
    });

    let mut table = Table::new(vec![
        "units",
        "wall s",
        "speedup vs 1 unit",
        "scaling efficiency",
    ]);
    let one_unit_wall = runs[0].wall_time_s;
    for (&units, run) in unit_counts.iter().zip(&runs) {
        let speedup = one_unit_wall / run.wall_time_s;
        table.row(vec![
            units.to_string(),
            format!("{:.4}", run.wall_time_s),
            format!("{speedup:.1}×"),
            format!("{:.0}%", speedup / units as f64 * 100.0),
        ]);
    }
    table.emit(ctx, "ablation_units")?;

    println!("\npaper anchor: near-linear scaling up to the BRAM-limited 32 units");
    println!(
        "floorplan ceiling: {} units (routability bound)",
        max_units(32)
    );
    Ok(())
}
