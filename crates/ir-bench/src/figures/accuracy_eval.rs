//! Extension experiment: does realignment actually *recover the truth*?
//!
//! The paper motivates IR by variant-calling accuracy ("somatic variant
//! calls must contain as few errors as possible") but reports only
//! performance. With a synthetic workload the ground truth is known, so
//! this harness measures the algorithm's biological effectiveness:
//!
//! - **consensus recovery** — how often the scored pick is the true
//!   haplotype on variant loci;
//! - **carrier-read recovery** — how often a realigned variant-carrying
//!   read lands exactly at its true offset;
//! - **realignment consistency** — the paper's core promise: after IR,
//!   carrier reads agree on one representation of the variant.

use crate::{bench_workload, FigureContext, Table};
use ir_core::{IndelRealigner, SelectionRule};

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    let scale = ctx.scale;
    let generator = bench_workload(scale);
    let pairs = generator.targets_with_truth(400, 0xacc);
    println!(
        "Realignment accuracy on {} ground-truthed targets (scale-independent)\n",
        pairs.len()
    );

    for rule in [
        SelectionRule::AbsDiffVsReference,
        SelectionRule::TotalMinWhd,
    ] {
        evaluate(ctx, rule, &pairs)?;
    }
    println!(
        "\nIR's job (paper §II-A): \"ensure that all reads that contain a single sequence\n\
         variant are aligned with a consistent representation\" — the carrier-read recovery\n\
         rate above is exactly that consistency, measured against ground truth.\n\n\
         Finding: the paper's published absolute-difference scoring (Algorithm 2) is\n\
         easily distracted by spurious near-reference consensuses; GATK's actual\n\
         total-min-WHD selection recovers the true haplotype far more often. Both rules\n\
         are implemented; the hardware model follows the paper."
    );
    Ok(())
}

fn evaluate(
    ctx: &FigureContext,
    rule: SelectionRule,
    pairs: &[(ir_genome::RealignmentTarget, ir_workloads::TargetTruth)],
) -> std::io::Result<()> {
    let realigner = IndelRealigner::new().with_selection_rule(rule);
    let mut variant_targets = 0u64;
    let mut consensus_recovered = 0u64;
    let mut carrier_reads = 0u64;
    let mut carrier_recovered = 0u64;
    let mut mismapped_moved = 0u64;
    let mut mismapped_total = 0u64;

    for (target, truth) in pairs {
        let result = realigner.realign(target);
        if truth.has_variant {
            variant_targets += 1;
            let true_consensus = truth.true_consensus.expect("variant targets have one");
            let picked_truth = result.best_consensus() == true_consensus;
            if picked_truth {
                consensus_recovered += 1;
            }
            for (j, read_truth) in truth.reads.iter().enumerate() {
                if read_truth.mismapped {
                    continue;
                }
                if read_truth.carrier {
                    carrier_reads += 1;
                    if picked_truth {
                        if let Some(offset) = result.read_outcome(j).new_offset() {
                            if offset == read_truth.source_offset {
                                carrier_recovered += 1;
                            }
                        } else if target.read(j).start_offset() as usize == read_truth.source_offset
                        {
                            // Already consistent: nothing to fix.
                            carrier_recovered += 1;
                        }
                    }
                }
            }
        }
        for (j, read_truth) in truth.reads.iter().enumerate() {
            if read_truth.mismapped {
                mismapped_total += 1;
                if result.read_outcome(j).realigned() {
                    mismapped_moved += 1;
                }
            }
        }
    }

    println!("selection rule: {rule:?}");
    let mut table = Table::new(vec!["metric", "value"]);
    let pct = |num: u64, den: u64| {
        if den == 0 {
            "n/a".to_string()
        } else {
            format!("{:.1}% ({num}/{den})", num as f64 / den as f64 * 100.0)
        }
    };
    table.row(vec![
        "true consensus picked on variant loci".into(),
        pct(consensus_recovered, variant_targets),
    ]);
    table.row(vec![
        "carrier reads placed at true offset".into(),
        pct(carrier_recovered, carrier_reads),
    ]);
    table.row(vec![
        "mismapped reads (should rarely move)".into(),
        pct(mismapped_moved, mismapped_total),
    ]);
    table.emit(ctx, &format!("accuracy_eval_{rule:?}").to_lowercase())
}
