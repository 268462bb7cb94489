//! Telemetry report: per-block perf counters, Chrome/Perfetto traces and
//! a bottleneck table for the three deployment configurations the paper
//! evaluates.
//!
//! Runs the same workload through:
//!
//! - `TaskP`        — serial units, synchronous-flush scheduling;
//! - `TaskP-Async`  — serial units, asynchronous scheduling;
//! - `IRACC`        — 32-lane data-parallel units, asynchronous.
//!
//! For each configuration it writes `results/telemetry_<name>.csv` (the
//! full counter dump) and `results/telemetry_<name>.trace.json` (a Chrome
//! trace-event file loadable at <https://ui.perfetto.dev>), validates the
//! emitted JSON, and prints the bottleneck report derived from the
//! per-unit cycle accounting.
//!
//! The runs share one [`FunctionalOracle`], so the three configurations
//! reuse each other's memoized unit results where their datapath
//! parameters coincide.
//!
//! The cross-check at the end measures the paper's Figure 7 claim: the
//! asynchronous scheduler removes the worst-case idle time that
//! synchronous batch flushes leave on the slowest-matched units.

use std::fs;

use ir_bench::{bench_workload, results_dir, scale_from_env, threads_from_env, Table};
use ir_fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling};
use ir_telemetry::json::validate_json;

/// Target count floor so per-unit statistics are meaningful even at the
/// default laptop scale; above it the count tracks `IR_SCALE` so the
/// report exercises the simulator at the scale the user asked for.
fn report_targets(scale: f64) -> usize {
    ((51_200.0 * scale).round() as usize).max(64)
}

fn main() {
    let scale = scale_from_env();
    let threads = threads_from_env();
    let targets = bench_workload(scale).targets(report_targets(scale), 0x7E1E);
    println!(
        "Telemetry report ({} targets, bench-profile workload at scale {scale}, {threads} host threads)\n",
        targets.len()
    );

    let configs: [(&str, FpgaParams, Scheduling); 3] = [
        ("taskp", FpgaParams::serial(), Scheduling::Synchronous),
        (
            "taskp_async",
            FpgaParams::serial(),
            Scheduling::Asynchronous,
        ),
        ("iracc", FpgaParams::iracc(), Scheduling::Asynchronous),
    ];

    // Every emitted artifact (counter CSVs, traces, this summary table)
    // is deterministic and byte-identical across repeat runs.
    let mut summary = Table::new(vec![
        "config",
        "wall ms",
        "mean busy %",
        "worst idle %",
        "dma stall Mcycles",
        "arb5 conflict Mcycles",
        "ddr row hit %",
        "trace events",
    ]);
    let mut worst_idle = Vec::new();
    let mut oracle = FunctionalOracle::new();

    for (name, params, scheduling) in configs {
        let system = AcceleratedSystem::new(params, scheduling)
            .expect("paper configurations fit the VU9P")
            .with_telemetry(true);
        // Warm the oracle across host threads first: the datapath results
        // are a pure function of (target, timing key), so the event loop
        // that follows replays them from cache and stays bitwise identical
        // to a cold single-threaded run.
        oracle.precompute(&targets, &params, threads);
        let run = system.run_with_oracle(&targets, &mut oracle);
        let snapshot = run.telemetry.as_ref().expect("telemetry enabled");

        let csv_path = results_dir().join(format!("telemetry_{name}.csv"));
        if let Err(e) = fs::write(&csv_path, snapshot.to_csv()) {
            eprintln!("warning: could not write {}: {e}", csv_path.display());
        }
        let trace = snapshot.chrome_trace_json();
        validate_json(&trace).expect("emitted Chrome trace must be valid JSON");
        let trace_path = results_dir().join(format!("telemetry_{name}.trace.json"));
        if let Err(e) = fs::write(&trace_path, &trace) {
            eprintln!("warning: could not write {}: {e}", trace_path.display());
        }

        let report = snapshot.bottleneck_report();
        println!(
            "=== {name} ({scheduling:?}, {} units) ===",
            params.num_units
        );
        println!("{}", report.render());
        println!(
            "[csv] {}\n[trace] {}\n",
            csv_path.display(),
            trace_path.display()
        );

        let max_idle = report
            .units
            .iter()
            .map(|u| {
                if u.total_cycles == 0 {
                    0.0
                } else {
                    u.idle_cycles as f64 / u.total_cycles as f64
                }
            })
            .fold(0.0f64, f64::max);
        worst_idle.push((name, max_idle));

        let beats = snapshot.counter("ddr/beats");
        let row_hits = snapshot.counter("ddr/row_hits");
        summary.row(vec![
            name.to_string(),
            format!("{:.3}", run.wall_time_s * 1e3),
            format!("{:.1}", report.mean_busy_fraction() * 100.0),
            format!("{:.1}", max_idle * 100.0),
            format!("{:.2}", snapshot.counter("dma/stall_cycles") as f64 / 1e6),
            format!(
                "{:.2}",
                snapshot.counter("arbiter5/conflict_cycles") as f64 / 1e6
            ),
            if beats == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", row_hits as f64 / beats as f64 * 100.0)
            },
            snapshot.trace.events.len().to_string(),
        ]);
    }

    summary.emit("telemetry_report");

    // Figure 7 cross-check: synchronous flushes strand the fastest units
    // until the slowest in the batch finishes; asynchronous dispatch is
    // supposed to remove that worst-case idle time.
    let sync_idle = worst_idle[0].1;
    let async_idle = worst_idle[1].1;
    println!(
        "\nfigure 7 cross-check: worst per-unit idle fraction {:.1}% (sync) vs {:.1}% (async)",
        sync_idle * 100.0,
        async_idle * 100.0
    );
    if async_idle < sync_idle {
        println!("  -> asynchronous scheduling removes the synchronous worst-case idle time ✔");
    } else {
        println!("  -> WARNING: async did not reduce worst-case idle on this workload");
    }
}
