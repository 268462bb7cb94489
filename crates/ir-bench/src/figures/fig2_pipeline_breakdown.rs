//! Figure 2: execution-time breakdown of the three genomic-analysis
//! pipelines (primary alignment, alignment refinement, variant calling).
//!
//! Paper anchors: primary alignment < 15% of total (≈ 17 h), alignment
//! refinement ≈ 60% (≈ 72 h), variant calling ≈ 36 h; Smith-Waterman seed
//! extension ≈ 5% of total, suffix-array lookup ≈ 1.5%, and INDEL
//! realignment ≈ 34% of the total genomic-analysis time.

use crate::{FigureContext, Table};
use ir_baselines::pipeline::{amdahl_speedup, paper_pipelines, stage_fraction_of_total};

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    println!("Figure 2: genomic analysis execution time breakdown (GATK3 / BWA-MEM)\n");

    let pipelines = paper_pipelines();
    let total_hours: f64 = pipelines.iter().map(|p| p.hours).sum();

    let mut table = Table::new(vec![
        "pipeline",
        "stage",
        "hours",
        "% of pipeline",
        "% of total",
    ]);
    for p in &pipelines {
        for (stage, fraction) in &p.stages {
            let hours = p.hours * fraction;
            table.row(vec![
                p.name.to_string(),
                stage.to_string(),
                format!("{hours:.1}"),
                format!("{:.1}%", fraction * 100.0),
                format!("{:.1}%", hours / total_hours * 100.0),
            ]);
        }
    }
    table.emit(ctx, "fig2_pipeline_breakdown")?;

    println!("\npipeline totals over {total_hours:.0} h of genomic analysis:");
    for p in &pipelines {
        println!(
            "  {:30} {:5.1} h  ({:4.1}% of total)",
            p.name,
            p.hours,
            p.hours / total_hours * 100.0
        );
    }

    let ir = stage_fraction_of_total("Alignment Refinement", "INDEL Realignment");
    let sw = stage_fraction_of_total("Primary Alignment", "Seed Extension (Smith-Waterman)");
    let sa = stage_fraction_of_total("Primary Alignment", "Suffix Array Lookup");
    println!("\nacceleration-target comparison (why IR, not Smith-Waterman):");
    println!(
        "  INDEL realignment          : {:4.1}% of total (paper: ~34%)",
        ir * 100.0
    );
    println!(
        "  Smith-Waterman seed extend : {:4.1}% of total (paper: ~5%)",
        sw * 100.0
    );
    println!(
        "  suffix array lookup        : {:4.1}% of total (paper: ~1.5%)",
        sa * 100.0
    );

    println!("\nAmdahl's law on the whole genomic-analysis flow:");
    println!(
        "  accelerate IR 81×            → {:.2}× end-to-end",
        amdahl_speedup(ir, 81.0)
    );
    println!(
        "  accelerate Smith-Waterman 81× → {:.2}× end-to-end",
        amdahl_speedup(sw, 81.0)
    );
    println!(
        "  accelerate suffix lookup 81×  → {:.2}× end-to-end",
        amdahl_speedup(sa, 81.0)
    );
    Ok(())
}
