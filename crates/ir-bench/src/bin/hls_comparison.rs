//! §V-B "Comparison with HLS": the SDAccel build vs the hand-written
//! Chisel design.
//!
//! Paper anchor: the HLS version achieves only 1.3×–3.1× over GATK3,
//! because Xilinx OpenCL caps asynchronously-scheduled compute units at
//! 16 and HLS fails to extract the coarse-grained parallelism and pruning
//! of the hand-written datapath.

use ir_bench::{chromosome_sweep, gmean, scale_from_env, threads_from_env, Table};
use ir_fpga::hls::hls_system;
use ir_fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_genome::Chromosome;

fn main() {
    let scale = scale_from_env();
    println!("HLS (SDAccel/OpenCL) build vs the Chisel IR ACC (scale {scale})\n");

    let systems = [
        hls_system().expect("16-unit HLS design fits"),
        AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).expect("fits"),
    ];
    let chromosomes: Vec<Chromosome> = Chromosome::autosomes().take(6).collect();
    let rows = chromosome_sweep(scale, &chromosomes, &systems, threads_from_env(), |run| {
        run.wall_time_s
    });

    let mut table = Table::new(vec!["chromosome", "HLS × vs GATK3", "IR ACC × vs GATK3"]);
    let mut hls_x = Vec::new();
    for row in &rows {
        let (gatk_s, hls_s, iracc_s) = (row.gatk_s, row.runs[0], row.runs[1]);
        hls_x.push(gatk_s / hls_s);
        table.row(vec![
            row.chromosome.to_string(),
            format!("{:.1}", gatk_s / hls_s),
            format!("{:.1}", gatk_s / iracc_s),
        ]);
    }
    table.emit("hls_comparison");

    println!("\npaper anchor: HLS only 1.3–3.1× over GATK3 (16-CU OpenCL limit, no pruning,");
    println!("no coarse-grained parallelism extracted, hard-to-debug generated RTL)");
    println!(
        "measured     : HLS {:.1}–{:.1}× (gmean {:.1}×)",
        hls_x.iter().cloned().fold(f64::INFINITY, f64::min),
        hls_x.iter().cloned().fold(0.0, f64::max),
        gmean(&hls_x)
    );
}
