//! §IV measurement: PCIe DMA's share of end-to-end runtime.
//!
//! Paper anchor: "using PCIe DMA to transfer target input data from the
//! host to the FPGA accounts for only 0.01% of the total runtime."

use crate::{default_workload, FigureContext, Table};
use ir_fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_genome::Chromosome;

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    // Paper-geometry targets (250 bp reads) carry the real compute/byte
    // ratio; capped scale keeps the simulation affordable.
    let scale = ctx.scale.min(2e-4);
    let generator = default_workload(scale);
    println!("PCIe DMA overhead in the end-to-end accelerated run (scale {scale})\n");

    let mut table = Table::new(vec![
        "config",
        "wall s",
        "DMA busy s",
        "DMA % of wall",
        "host cmd % of wall",
    ]);
    let workload = generator.chromosome(Chromosome::Autosome(2));
    let mut iracc_fraction = 0.0;
    let mut serial_fraction = 0.0;
    for (name, params) in [
        ("IRAcc serial", FpgaParams::serial()),
        ("IR ACC", FpgaParams::iracc()),
    ] {
        let run = AcceleratedSystem::new(params, Scheduling::Asynchronous)
            .expect("config fits")
            .run(&workload.targets);
        if name == "IR ACC" {
            iracc_fraction = run.dma_fraction();
        } else {
            serial_fraction = run.dma_fraction() * 100.0;
        }
        table.row(vec![
            name.to_string(),
            format!("{:.4}", run.wall_time_s),
            format!("{:.6}", run.dma_busy_s),
            format!("{:.3}%", run.dma_fraction() * 100.0),
            format!("{:.3}%", run.command_s / run.wall_time_s * 100.0),
        ]);
    }
    table.emit(ctx, "dma_overhead")?;

    println!("\npaper anchor: DMA ≈ 0.01% of total runtime");
    println!(
        "measured     : DMA {serial_fraction:.3}% of the serial-unit wall time, {:.3}% of IR ACC",
        iracc_fraction * 100.0
    );
    println!(
        "\n(the data-parallel fabric computes ~15× faster over the same bytes, so its\nDMA share is correspondingly larger; both shrink further at full scale as\nper-batch descriptor latency amortizes)"
    );
    Ok(())
}
