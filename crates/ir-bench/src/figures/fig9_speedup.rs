//! Figure 9 (left): per-chromosome speedup of the accelerated IR system
//! over GATK3, for the three accelerator configurations —
//! `IRAcc-TaskP` (32 serial units, synchronous flush),
//! `IRAcc-TaskP-Async` (asynchronous dispatch) and
//! `IR ACC` (asynchronous + 32-lane data parallelism) — plus the ADAM
//! comparison of §V-B.
//!
//! Paper anchors: IRACC 66.7×–115.4× over GATK3 (gmean 81.3×); TaskP
//! 0.7×–1.3×; Async ≈ 6.2× over TaskP; ADAM speedup 30.2×–69.1×
//! (avg 41.4×).
//!
//! A larger scale trades time for accuracy; the thread count sets the
//! sweep worker count without changing a single emitted byte.
//!
//! The three accelerator columns replay one functional oracle per
//! chromosome ([`chromosome_sweep`]): TaskP and TaskP-Async share the
//! serial datapath's evaluations (the result depends only on the timing
//! key, not on the flush discipline), and the IRACC column, whose key
//! differs only in its 32 lanes, derives its entries from those
//! evaluations instead of sweeping again wherever every read of a target
//! is at most 96 bases — every target of the bench-profile workload.

use crate::{chromosome_sweep, fmt_duration, gmean, FigureContext, Table};
use ir_fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_genome::Chromosome;

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    let scale = ctx.scale;
    println!("Figure 9 (left): hardware-accelerated INDEL realignment vs software");
    println!("workload scale: {scale} of the paper's NA12878 run\n");

    let system = |params, scheduling| AcceleratedSystem::new(params, scheduling).expect("fits");
    let systems = [
        system(FpgaParams::serial(), Scheduling::Synchronous),
        system(FpgaParams::serial(), Scheduling::Asynchronous),
        system(FpgaParams::iracc(), Scheduling::Asynchronous),
    ];
    let chromosomes: Vec<Chromosome> = Chromosome::autosomes().collect();
    let rows = chromosome_sweep(scale, &chromosomes, &systems, ctx.threads, |run| {
        run.wall_time_s
    });

    let mut table = Table::new(vec![
        "chromosome",
        "IRAcc-TaskP ×",
        "IRAcc-TaskP-Async ×",
        "IR ACC ×",
        "IR ACC vs ADAM ×",
    ]);
    let mut taskp_x = Vec::new();
    let mut async_x = Vec::new();
    let mut iracc_x = Vec::new();
    let mut adam_x = Vec::new();
    for r in &rows {
        let (taskp_s, async_s, iracc_s) = (r.runs[0], r.runs[1], r.runs[2]);
        let tp = r.gatk_s / taskp_s;
        let ta = r.gatk_s / async_s;
        let ir = r.gatk_s / iracc_s;
        let ad = r.adam_s / iracc_s;
        taskp_x.push(tp);
        async_x.push(ta);
        iracc_x.push(ir);
        adam_x.push(ad);
        table.row(vec![
            r.chromosome.to_string(),
            format!("{tp:.2}"),
            format!("{ta:.1}"),
            format!("{ir:.1}"),
            format!("{ad:.1}"),
        ]);
    }
    table.row(vec![
        "GMEAN".to_string(),
        format!("{:.2}", gmean(&taskp_x)),
        format!("{:.1}", gmean(&async_x)),
        format!("{:.1}", gmean(&iracc_x)),
        format!("{:.1}", gmean(&adam_x)),
    ]);
    table.emit(ctx, "fig9_speedup")?;

    let total_gatk: f64 = rows.iter().map(|r| r.gatk_s).sum();
    let total_iracc: f64 = rows.iter().map(|r| r.runs[2]).sum();
    println!("\nextrapolated full-genome (Ch1–22) wall times at scale 1.0:");
    println!("  GATK3  : {}", fmt_duration(total_gatk / scale));
    println!("  IR ACC : {}", fmt_duration(total_iracc / scale));
    println!(
        "\npaper anchors: IRACC 66.7–115.4× (gmean 81.3×); TaskP 0.7–1.3×; \
         Async gain ≈ 6.2×; vs ADAM 30.2–69.1× (avg 41.4×)"
    );
    println!(
        "measured     : IRACC {:.1}–{:.1}× (gmean {:.1}×); TaskP gmean {:.2}×; \
         Async gain {:.1}×; vs ADAM {:.1}–{:.1}× (gmean {:.1}×)",
        iracc_x.iter().cloned().fold(f64::INFINITY, f64::min),
        iracc_x.iter().cloned().fold(0.0, f64::max),
        gmean(&iracc_x),
        gmean(&taskp_x),
        gmean(&async_x) / gmean(&taskp_x),
        adam_x.iter().cloned().fold(f64::INFINITY, f64::min),
        adam_x.iter().cloned().fold(0.0, f64::max),
        gmean(&adam_x),
    );
    Ok(())
}
