//! Figure 3: INDEL realignment's share of the alignment-refinement
//! pipeline, per chromosome.
//!
//! Paper anchor: IR consumes 53%–67% of refinement execution time on
//! GATK3, averaging 58%. Here the IR time comes from the GATK cost model
//! on each chromosome's synthetic workload and the other stages (sort,
//! duplicate marking, BQSR) are priced per read.

use crate::{default_workload, FigureContext, Table};
use ir_baselines::pipeline::refinement_breakdown;
use ir_genome::Chromosome;

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    let scale = ctx.scale;
    let generator = default_workload(scale);
    println!("Figure 3: IR fraction of the alignment refinement pipeline");
    println!("workload scale: {scale}\n");

    let mut table = Table::new(vec!["chromosome", "targets", "IR s", "other s", "IR %"]);
    let mut fractions = Vec::new();
    for chromosome in Chromosome::autosomes() {
        let workload = generator.chromosome(chromosome);
        let shapes: Vec<_> = workload.targets.iter().map(|t| t.shape()).collect();
        let b = refinement_breakdown(&shapes);
        fractions.push(b.ir_fraction());
        table.row(vec![
            chromosome.to_string(),
            workload.targets.len().to_string(),
            format!("{:.2}", b.ir_s),
            format!("{:.2}", b.other_s),
            format!("{:.1}%", b.ir_fraction() * 100.0),
        ]);
    }
    let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
    let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = fractions.iter().cloned().fold(0.0f64, f64::max);
    table.row(vec![
        "AVG".to_string(),
        "".to_string(),
        "".to_string(),
        "".to_string(),
        format!("{:.1}%", avg * 100.0),
    ]);
    table.emit(ctx, "fig3_ir_fraction")?;

    println!("\npaper anchors: IR share 53%–67% per chromosome, average 58%");
    println!(
        "measured     : IR share {:.0}%–{:.0}% per chromosome, average {:.0}%",
        min * 100.0,
        max * 100.0,
        avg * 100.0
    );
    Ok(())
}
