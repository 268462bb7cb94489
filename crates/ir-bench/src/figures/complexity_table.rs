//! §II-C: the compute-bound analysis of the IR algorithm.
//!
//! Paper anchors: worst-case `O(C·R·(m−n+1)·n)` with C ≤ 32, R ≤ 256,
//! m ≤ 2048 — an "astonishing" 3,684,352,000 comparisons for one target;
//! the kernel needs ≥ 3 bytes/cycle of buffer bandwidth to stay
//! compute-bound; even the smallest chromosome has > 48,000 targets.

use crate::{FigureContext, Table};
use ir_core::complexity::{
    pair_comparisons, paper_worst_case, target_comparisons, BYTES_PER_COMPARISON,
};
use ir_workloads::{expected_target_count, PAPER_CH21_TARGETS, PAPER_CH2_TARGETS};

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    println!("§II-C complexity analysis of one IR target\n");
    let mut table = Table::new(vec!["C", "R", "m", "n", "comparisons"]);
    for (c, r, m, n) in [
        (2usize, 10usize, 320usize, 250usize),
        (4, 64, 900, 250),
        (8, 128, 1024, 250),
        (32, 256, 2048, 250),
    ] {
        table.row(vec![
            c.to_string(),
            r.to_string(),
            m.to_string(),
            n.to_string(),
            target_comparisons(c, r, m, n).to_string(),
        ]);
    }
    table.emit(ctx, "complexity_table")?;

    println!("\npaper anchor: worst case 3,684,352,000 comparisons per target");
    println!(
        "measured     : {} (C=32, R=256, m=2048, n=250) ✓",
        paper_worst_case()
    );
    println!(
        "\nper (consensus, read) pair at the maxima: {} comparisons",
        pair_comparisons(2048, 250)
    );
    println!("buffer bandwidth to stay compute-bound: {BYTES_PER_COMPARISON} bytes/cycle (consensus + read + quality)");
    println!(
        "\ntarget parallelism: Ch21 has ~{} targets, Ch2 ~{} (paper: >48k and >320k);\nmodel: Ch21 {} / Ch2 {}",
        PAPER_CH21_TARGETS,
        PAPER_CH2_TARGETS,
        expected_target_count(ir_genome::Chromosome::Autosome(21)),
        expected_target_count(ir_genome::Chromosome::Autosome(2)),
    );
    Ok(())
}
