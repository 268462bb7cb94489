//! Table II: machine configurations — the EC2 instances the accelerated
//! system and the software baselines run on.

use crate::{FigureContext, Table};
use ir_cloud::{Accelerator, Instance};

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    println!("Table II: machine configurations\n");
    let mut table = Table::new(vec![
        "instance",
        "processors",
        "vCPUs",
        "memory GiB",
        "accelerator",
        "$/hour",
    ]);
    for m in Instance::paper_machines() {
        let accel = match m.accelerator {
            Accelerator::XilinxVu9p => "Xilinx Virtex UltraScale+ VU9P, 64 GB 4×DDR4",
            Accelerator::NvidiaV100 => "NVIDIA V100",
            Accelerator::None => "—",
        };
        table.row(vec![
            m.name.to_string(),
            m.cpu.to_string(),
            m.vcpus.to_string(),
            format!("{:.0}", m.memory_gib),
            accel.to_string(),
            format!("{:.3}", m.price_per_hour_usd),
        ]);
    }
    table.emit(ctx, "table2_machines")?;
    println!(
        "\nthe r3.2xlarge is the most cost-efficient host for GATK3 because GATK3\n\
         does not scale beyond 8 threads (paper footnote 2)"
    );
    Ok(())
}
