//! Figure 7: synchronous-parallel vs asynchronous-parallel scheduling on
//! the paper's toy experiment — 8 same-sized targets (2 consensuses × 8
//! reads, stripped down from Ch22) on 4 IR units.
//!
//! Paper anchors: under the synchronous scheme one target computes ~8× as
//! long as another of identical size (pruning is data-dependent), so "3
//! out of 4 units idle for a majority of the total runtime"; the
//! asynchronous scheme launches a target the moment a unit frees.

use crate::{parallel_sweep, FigureContext, Table};
use ir_fpga::{AcceleratedSystem, FpgaParams, Scheduling, SystemRun, TimelinePhase};
use ir_workloads::scheduling_toy_targets;

fn gantt(run: &SystemRun, units: usize, label: &str) {
    println!(
        "{label}  (wall {:.2} ms, utilization {:.0}%)",
        run.wall_time_s * 1e3,
        run.utilization() * 100.0
    );
    let width = 64usize;
    let scale = width as f64 / run.wall_time_s;
    for unit in 0..units {
        let mut lane = vec![' '; width];
        for e in run
            .timeline
            .iter()
            .filter(|e| e.unit == unit && e.phase == TimelinePhase::Compute)
        {
            let start = (e.start_s * scale) as usize;
            let end = ((e.end_s * scale) as usize).min(width);
            let glyph = char::from_digit(e.target_index as u32 % 36, 36).unwrap_or('#');
            for cell in lane.iter_mut().take(end).skip(start) {
                *cell = glyph;
            }
        }
        println!("  unit {unit} |{}|", lane.iter().collect::<String>());
    }
    println!();
}

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    println!("Figure 7: scheduling the IR units — synchronous vs asynchronous\n");
    let targets = scheduling_toy_targets();
    let params = FpgaParams {
        num_units: 4,
        ..FpgaParams::serial()
    };

    // The two schedules are independent replays of the same toy workload;
    // input-order collection keeps [sync, async] stable for the report.
    let schedules = [Scheduling::Synchronous, Scheduling::Asynchronous];
    let mut runs = parallel_sweep(&schedules, ctx.threads, |&scheduling| {
        AcceleratedSystem::new(params, scheduling)
            .expect("4-unit config fits")
            .with_telemetry(true)
            .run(&targets)
    })
    .into_iter();
    let (sync, asynchronous) = (
        runs.next().expect("synchronous run"),
        runs.next().expect("asynchronous run"),
    );

    // Per-target compute times: same-sized targets, very different work.
    let mut table = Table::new(vec![
        "target",
        "worst-case cmp",
        "compute cycles",
        "vs fastest",
    ]);
    let cycles: Vec<u64> = sync.results.iter().map(|r| r.cycles.total()).collect();
    let fastest = *cycles.iter().min().expect("eight targets") as f64;
    for (i, (t, c)) in targets.iter().zip(&cycles).enumerate() {
        table.row(vec![
            format!("{i}"),
            t.shape().worst_case_comparisons().to_string(),
            c.to_string(),
            format!("{:.1}×", *c as f64 / fastest),
        ]);
    }
    table.emit(ctx, "fig7_scheduling")?;

    gantt(&sync, 4, "SYNCHRONOUS-PARALLEL (batch, flush, repeat)");
    gantt(
        &asynchronous,
        4,
        "ASYNCHRONOUS-PARALLEL (dispatch on response)",
    );

    let max_ratio = *cycles.iter().max().unwrap() as f64 / fastest;
    println!("paper anchors: same-sized targets differ ~8× in compute; async keeps all units busy");
    println!(
        "measured     : slowest/fastest same-sized target = {max_ratio:.1}×; \
         sync wall {:.2} ms @ {:.0}% util vs async wall {:.2} ms @ {:.0}% util ({:.2}× faster)",
        sync.wall_time_s * 1e3,
        sync.utilization() * 100.0,
        asynchronous.wall_time_s * 1e3,
        asynchronous.utilization() * 100.0,
        sync.wall_time_s / asynchronous.wall_time_s
    );
    Ok(())
}
