//! §III-B ablation: TileLink/memory interface width.
//!
//! Paper anchor: "We used the parametrized implementation to explore a
//! number of TileLink interface widths, and found that a 256-bit interface
//! provided the best performance under the timing constraints." Wider
//! interfaces speed buffer fills but lengthen routing paths; this sweep
//! reproduces the trade.

use crate::{bench_workload, FigureContext, Table};
use ir_fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_genome::Chromosome;

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    let scale = ctx.scale;
    let generator = bench_workload(scale);
    let workload = generator.chromosome(Chromosome::Autosome(21));
    println!("TileLink width sweep (scale {scale}, Ch21, IR ACC async)\n");

    let mut table = Table::new(vec![
        "TileLink bits",
        "bytes/beat",
        "wall s",
        "load+drain % of cycles",
        "routing headroom",
    ]);
    for bus_bytes in [8u64, 16, 32, 64] {
        let params = FpgaParams {
            bus_bytes,
            ..FpgaParams::iracc()
        };
        let run = AcceleratedSystem::new(params, Scheduling::Asynchronous)
            .expect("fits")
            .run(&workload.targets);
        let io_cycles: u64 = run
            .results
            .iter()
            .map(|r| r.cycles.load + r.cycles.drain)
            .sum();
        // Wider buses stress routing: the paper's 512-bit experiments
        // failed timing, so flag widths beyond 256 bits.
        let headroom = if bus_bytes <= 32 {
            "closes timing"
        } else {
            "routing-critical"
        };
        table.row(vec![
            (bus_bytes * 8).to_string(),
            bus_bytes.to_string(),
            format!("{:.4}", run.wall_time_s),
            format!(
                "{:.2}%",
                io_cycles as f64 / run.compute_cycles as f64 * 100.0
            ),
            headroom.to_string(),
        ]);
    }
    table.emit(ctx, "ablation_interconnect")?;

    println!("\npaper anchor: 256-bit TileLink is the sweet spot — wider widths win little");
    println!("(compute dominates; buffer fills are already a few % of cycles) and risk timing");
    Ok(())
}
