//! §IV ablation: how much of the synchronous scheduler's penalty can
//! sorting recover, and how much only asynchrony can?
//!
//! The paper sorts synchronous batches "by read and consensus sizes" and
//! still measures a 6.2× gain from going asynchronous, because
//! computation pruning makes same-shaped targets differ widely in
//! runtime. This sweep compares four dispatch policies on one
//! chromosome's workload.

use ir_bench::{bench_workload, scale_from_env, threads_from_env, Table};
use ir_fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling};
use ir_genome::Chromosome;

fn main() {
    let scale = scale_from_env();
    let generator = bench_workload(scale);
    let workload = generator.chromosome(Chromosome::Autosome(3));
    println!(
        "Scheduling-policy ablation (scale {scale}, {} on {} targets, serial units)\n",
        workload.chromosome,
        workload.targets.len()
    );

    let policies = [
        ("sync, unsorted", Scheduling::SynchronousUnsorted),
        (
            "sync, sorted by (reads, consensuses) — the paper",
            Scheduling::Synchronous,
        ),
        (
            "sync, sorted by exact worst-case work",
            Scheduling::SynchronousByWorstCase,
        ),
        ("asynchronous — the paper's fix", Scheduling::Asynchronous),
    ];

    // All four policies replay the same workload under the same serial
    // timing key — one warmed oracle serves the whole ablation.
    let mut oracle = FunctionalOracle::new();
    oracle.precompute(&workload.targets, &FpgaParams::serial(), threads_from_env());

    let mut table = Table::new(vec!["policy", "wall s", "unit utilization", "vs unsorted"]);
    let mut baseline = 0.0f64;
    for (name, scheduling) in policies {
        let run = AcceleratedSystem::new(FpgaParams::serial(), scheduling)
            .expect("serial config fits")
            .run_with_oracle(&workload.targets, &mut oracle);
        if baseline == 0.0 {
            baseline = run.wall_time_s;
        }
        table.row(vec![
            name.to_string(),
            format!("{:.4}", run.wall_time_s),
            format!("{:.0}%", run.utilization() * 100.0),
            format!("{:.2}×", baseline / run.wall_time_s),
        ]);
    }
    table.emit("ablation_scheduling");

    println!(
        "\npaper's lesson: batch-uniformity sorting cannot see data-dependent pruning\n\
         variance — only dispatch-on-response can absorb it. Even sorting by the exact\n\
         worst-case comparison count (information the host has) leaves most of the\n\
         asynchronous gain on the table."
    );
}
