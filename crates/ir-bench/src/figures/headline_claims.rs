//! The abstract's headline claims, measured end to end:
//!
//! 1. a sea of 32 IR accelerators processes **up to 4 billion base-pair
//!    comparisons per second** (serial units; the data-parallel design
//!    peaks at 128 G/s);
//! 2. IR for chromosomes 1–22 takes **a little more than 31 minutes and
//!    costs less than $1** on an F1 instance, vs **more than 42 hours and
//!    $28** for GATK3;
//! 3. **81× speedup** over 8-thread software at **32× lower cost**.
//!
//! Methodology as in `fig9_cost` ([`FullGenome`]): software baselines
//! priced analytically on paper-geometry shapes; the accelerator's
//! sustained throughput measured by simulation at the context's scale
//! and applied to the same work.

use crate::{chromosome_sweep, fmt_duration, FigureContext, FullGenome, Table};
use ir_cloud::{run_cost_usd, Instance};
use ir_fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_genome::Chromosome;

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    let scale = ctx.scale;
    println!("Headline claims (accelerator measured at scale {scale})\n");

    println!("claim 1 — peak comparison throughput:");
    println!(
        "  32 serial units × 125 MHz            = {:.1e} comparisons/s (paper: 'up to 4 billion')",
        FpgaParams::serial().peak_comparisons_per_second() as f64
    );
    println!(
        "  32 × 32-lane units × 125 MHz         = {:.1e} comparisons/s peak",
        FpgaParams::iracc().peak_comparisons_per_second() as f64
    );

    // Accelerator throughput from the simulated bench workload, applied
    // to the paper-geometry full-genome work.
    let iracc =
        AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).expect("iracc fits");
    let chromosomes: Vec<Chromosome> = Chromosome::autosomes().collect();
    let sweep = chromosome_sweep(scale, &chromosomes, &[iracc], ctx.threads, |run| {
        (run.comparisons, run.wall_time_s)
    });
    let bench_executed: u64 = sweep.iter().map(|c| c.runs[0].0).sum();
    let bench_wall: f64 = sweep.iter().map(|c| c.runs[0].1).sum();
    let full = FullGenome::extrapolate(
        scale,
        sweep.iter().map(|c| c.naive_comparisons).sum(),
        bench_wall,
    );
    let (gatk_full, iracc_full) = (full.gatk_s, full.accel_s);

    let gatk_cost = run_cost_usd(&Instance::r3_2xlarge(), gatk_full);
    let iracc_cost = run_cost_usd(&Instance::f1_2xlarge(), iracc_full);

    println!("\nclaim 2 — Ch1–22 INDEL realignment, full-genome extrapolation:");
    println!(
        "  IR ACC : {}  costing ${iracc_cost:.2}  (paper: ~31 min, <$1)",
        fmt_duration(iracc_full)
    );
    println!(
        "  GATK3  : {}  costing ${gatk_cost:.2}  (paper: >42 h, $28)",
        fmt_duration(gatk_full)
    );

    println!("\nclaim 3 — speedup and cost efficiency:");
    println!(
        "  speedup      : {:.1}× (paper: 81×)   cost efficiency: {:.0}× (paper: 32×)",
        gatk_full / iracc_full,
        gatk_cost / iracc_cost
    );
    println!(
        "\nsustained fabric rates during the measured run: {:.2e} executed cmp/s, \
         {:.2e} naive-equivalent cmp/s",
        bench_executed as f64 / bench_wall,
        full.throughput
    );

    let mut table = Table::new(vec!["claim", "measured", "paper"]);
    table.row(vec![
        "peak comparisons/s (serial fabric)".into(),
        format!(
            "{:.1e}",
            FpgaParams::serial().peak_comparisons_per_second() as f64
        ),
        "4e9".into(),
    ]);
    table.row(vec![
        "IR ACC Ch1-22 wall".into(),
        fmt_duration(iracc_full),
        "~31 min".into(),
    ]);
    table.row(vec![
        "IR ACC Ch1-22 cost USD".into(),
        format!("{iracc_cost:.2}"),
        "<1".into(),
    ]);
    table.row(vec![
        "GATK3 Ch1-22 wall".into(),
        fmt_duration(gatk_full),
        ">42 h".into(),
    ]);
    table.row(vec![
        "GATK3 Ch1-22 cost USD".into(),
        format!("{gatk_cost:.2}"),
        "28".into(),
    ]);
    table.row(vec![
        "speedup".into(),
        format!("{:.1}x", gatk_full / iracc_full),
        "81x".into(),
    ]);
    table.row(vec![
        "cost efficiency".into(),
        format!("{:.0}x", gatk_cost / iracc_cost),
        "32x".into(),
    ]);
    println!();
    table.emit(ctx, "headline_claims")?;
    Ok(())
}
