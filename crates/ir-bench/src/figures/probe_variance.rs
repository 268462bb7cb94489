//! Diagnostic: intra-batch compute variance under the synchronous
//! scheduler (not a paper figure; used to sanity-check the workload's
//! pruning-variance structure against the paper's Figure 7 narrative).

use crate::{bench_workload, FigureContext, Table};
use ir_fpga::unit::simulate_target;
use ir_fpga::FpgaParams;
use ir_genome::Chromosome;

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    let generator = bench_workload(ctx.scale);
    let workload = generator.chromosome(Chromosome::Autosome(21));
    let params = FpgaParams::serial();

    // Per-target serial unit cycles, ordered the way the synchronous
    // scheduler batches them: by (reads, consensuses) descending.
    let mut targets: Vec<_> = workload.targets.iter().collect();
    targets.sort_by_key(|t| std::cmp::Reverse((t.num_reads(), t.num_consensuses())));
    let rows: Vec<(usize, u64, u64)> = targets
        .iter()
        .map(|t| {
            let run = simulate_target(t, &params);
            (
                t.num_reads(),
                t.shape().worst_case_comparisons(),
                run.cycles.total(),
            )
        })
        .collect();

    println!("targets: {}", rows.len());
    let naive: u64 = rows.iter().map(|r| r.1).sum();
    let executed: u64 = rows.iter().map(|r| r.2).sum();
    println!(
        "serial cycles / naive comparisons: {:.3}",
        executed as f64 / naive as f64
    );

    let mut utils = Vec::new();
    let mut table = Table::new(vec![
        "batch",
        "targets",
        "min cycles",
        "mean cycles",
        "max cycles",
        "batch util",
    ]);
    for (i, batch) in rows.chunks(32).enumerate() {
        let min = batch.iter().map(|r| r.2).min().unwrap();
        let max = batch.iter().map(|r| r.2).max().unwrap();
        let mean = batch.iter().map(|r| r.2).sum::<u64>() as f64 / batch.len() as f64;
        let util = mean / max as f64;
        utils.push(util);
        table.row(vec![
            i.to_string(),
            batch.len().to_string(),
            min.to_string(),
            format!("{mean:.0}"),
            max.to_string(),
            format!("{util:.3}"),
        ]);
        let works: Vec<f64> = batch
            .iter()
            .map(|r| (r.2 as f64 / 1e3).round() / 1e3)
            .collect();
        let reads: Vec<usize> = batch.iter().map(|r| r.0).collect();
        println!(
            "batch util {util:.2} | reads {:?} | Mcycles {:?}",
            &reads[..reads.len().min(8)],
            &works[..works.len().min(8)]
        );
    }
    table.emit(ctx, "probe_variance")?;
    let avg = utils.iter().sum::<f64>() / utils.len() as f64;
    println!(
        "sync batch utilization avg: {avg:.3} → async gain ≈ {:.1}",
        1.0 / avg
    );
    Ok(())
}
