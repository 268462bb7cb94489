//! §III-A / §IV ablation: computation pruning.
//!
//! Paper anchor: "Computation pruning eliminates > 50% of the computations
//! from the input data set we used", bought with "a small register ... and
//! some relatively trivial control logic".

use crate::{default_workload, gmean, FigureContext, Table};
use ir_core::{IndelRealigner, PruningMode};
use ir_genome::Chromosome;

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    // Paper-geometry targets, with the scale capped so the unpruned-
    // equivalent work stays affordable.
    let scale = ctx.scale.min(2e-4);
    let generator = default_workload(scale);
    println!("Computation-pruning ablation (workload scale {scale})\n");

    let pruned_realigner = IndelRealigner::with_pruning(PruningMode::On);
    let mut table = Table::new(vec![
        "chromosome",
        "naive comparisons",
        "pruned comparisons",
        "eliminated",
    ]);
    let mut fractions = Vec::new();
    for chromosome in Chromosome::autosomes().take(6) {
        let workload = generator.chromosome(chromosome);
        let (_, ops) = pruned_realigner.realign_all(&workload.targets);
        let eliminated = ops.pruned_fraction();
        fractions.push(eliminated);
        table.row(vec![
            chromosome.to_string(),
            ops.naive_comparisons().to_string(),
            ops.base_comparisons.to_string(),
            format!("{:.1}%", eliminated * 100.0),
        ]);
    }
    table.emit(ctx, "pruning_ablation")?;

    println!("\npaper anchor: pruning eliminates > 50% of computations");
    println!(
        "measured     : {:.1}% eliminated (gmean across chromosomes), hardware cost ≈ one register + comparator",
        gmean(&fractions) * 100.0
    );
    println!("\npruning is exact: grids, consensus picks and realignments are unchanged\n(verified continuously by the `pruning_invariance` property tests)");
    Ok(())
}
