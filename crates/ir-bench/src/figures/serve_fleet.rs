//! `serve_fleet` — multi-node fleet load generator for `ir-serve::fleet`.
//!
//! Replays one seeded Poisson arrival stream against fleets of 1, 2, 4
//! and 8 nodes plus an SLO-driven autoscaling fleet, all on the shared
//! virtual clock. The offered rate is calibrated from a deterministic
//! full-batch probe to ~1.6x one node's capacity, so the single node is
//! visibly overloaded, two nodes run near 80% load, and wider fleets buy
//! SLO attainment with rising cost — the cost/SLO trade-off curve the
//! paper's cloud-deployment section argues about.
//!
//! Emitted artifacts (all deterministic, byte-identical across runs and
//! thread counts; CI's `fleet-smoke` job diffs them):
//!
//! - `serve_fleet.{csv,txt}` — per-topology cost/SLO table,
//! - `fleet_report.json` — the 4-node fleet's structured report.
//!
//! The context's thread count only sizes the oracle pre-warm.

use crate::{bench_workload, FigureContext, Table};
use ir_serve::{AutoscalerConfig, FleetConfig, FleetReport, FleetService, Request, ServeConfig};
use ir_workloads::ArrivalProcess;

/// Workload / arrival seeds (arbitrary but fixed, shared with serve_load).
const WORKLOAD_SEED: u64 = 2026;
const ARRIVAL_SEED: u64 = 41;

/// Offered load as a fraction of a single node's calibrated capacity.
/// Above 1.0 by design: one node must saturate for the curve to bend.
const LOAD_FACTOR: f64 = 1.6;

/// Inter-node routing hop on the virtual clock.
const HOP_LATENCY_S: f64 = 2e-6;

fn node_config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        ..ServeConfig::default()
    }
}

fn fleet_config(nodes: usize, threads: usize, autoscale: Option<AutoscalerConfig>) -> FleetConfig {
    FleetConfig {
        nodes,
        node: node_config(threads),
        hop_latency_s: HOP_LATENCY_S,
        autoscale,
        ..FleetConfig::default()
    }
}

fn run_fleet(
    label: &str,
    config: FleetConfig,
    targets: &[ir_genome::RealignmentTarget],
    rate_rps: f64,
) -> FleetReport {
    let times = ArrivalProcess::poisson(ARRIVAL_SEED, rate_rps).times(targets.len());
    let requests: Vec<Request> = targets
        .iter()
        .zip(&times)
        .enumerate()
        .map(|(i, (t, &at))| Request::new(i as u64, at, t.clone()))
        .collect();
    let mut fleet = FleetService::new(config).expect("valid fleet config");
    let report = fleet.run(requests).expect("fleet run succeeds");
    println!(
        "{label}: served {}/{} requests on <= {} node(s)",
        report.completed(),
        report.offered(),
        report.peak_nodes,
    );
    report
}

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    let scale = ctx.scale;
    let threads = ctx.threads;
    let count = ((48_000.0 * scale).ceil() as usize).max(64);
    println!("serve_fleet: {count} requests at scale {scale:.0e}\n");
    let targets = bench_workload(scale).targets(count, WORKLOAD_SEED);

    // Calibrate one node's capacity: one shard executing full batches
    // back to back, scaled by the shard count (same probe as serve_load).
    let probe_config = node_config(threads);
    let mut probe = ir_serve::Shard::new(0, &probe_config).expect("probe shard");
    for chunk in targets.chunks(probe_config.max_batch) {
        let _ = probe.run_batch(chunk).expect("probe batch");
    }
    let capacity_rps = probe_config.shards as f64 * targets.len() as f64 / probe.busy_s();
    let rate_rps = LOAD_FACTOR * capacity_rps;
    println!(
        "calibrated single-node capacity {:.0} req/s; offering {:.0} req/s ({:.0}% of one node)\n",
        capacity_rps,
        rate_rps,
        LOAD_FACTOR * 100.0
    );

    let mut table = Table::new(vec![
        "fleet",
        "peak_nodes",
        "offered_rps",
        "completed",
        "rejected",
        "throughput_rps",
        "p50_ms",
        "p99_ms",
        "slo_attainment",
        "node_seconds",
        "cost_usd",
        "cost_per_mtargets_usd",
    ]);
    let mut exported_report = None;
    // The whole arrival stream spans only tens of virtual milliseconds,
    // so the autoscaler must react within a few batch completions to
    // matter: tight 1 ms evaluation windows, a single breach window
    // against a p99 objective below the single node's saturated tail,
    // and a clear_windows horizon long enough that it never flaps back
    // down mid-run.
    let autoscale = AutoscalerConfig {
        min_nodes: 1,
        max_nodes: 8,
        eval_period_s: 1e-3,
        cooldown_s: 2e-3,
        breach_windows: 1,
        clear_windows: 32,
        p99_slo_s: 4e-3,
        ..AutoscalerConfig::default()
    };
    let runs: Vec<(String, FleetConfig)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| (format!("fixed-{n}"), fleet_config(n, threads, None)))
        .chain(std::iter::once((
            "autoscale".to_string(),
            fleet_config(1, threads, Some(autoscale)),
        )))
        .collect();
    for (label, config) in runs {
        let is_exported = label == "fixed-4";
        let report = run_fleet(&label, config, &targets, rate_rps);
        let pctl = |p| report.latency_percentile_s(p).expect("responses completed");
        table.row(vec![
            label,
            format!("{}", report.peak_nodes),
            format!("{rate_rps:.0}"),
            format!("{}", report.completed()),
            format!("{}", report.rejected()),
            format!("{:.0}", report.throughput_rps()),
            format!("{:.3}", pctl(50.0) * 1e3),
            format!("{:.3}", pctl(99.0) * 1e3),
            format!("{:.4}", report.slo_attainment()),
            format!("{:.6}", report.node_seconds()),
            format!("{:.6}", report.cost_usd()),
            format!("{:.4}", report.cost_per_million_targets_usd()),
        ]);
        if is_exported {
            exported_report = Some(report);
        }
    }
    println!();
    table.emit(ctx, "serve_fleet")?;
    // The 4-node fleet's structured report, pinned byte for byte by the
    // committed results/fleet_report.json.
    if let Some(report) = exported_report {
        let path = ctx.write("fleet_report.json", report.to_json())?;
        println!("[json] {}", path.display());
        println!(
            "4-node fleet: SLO attainment {:.4}, {:.4} USD per million targets",
            report.slo_attainment(),
            report.cost_per_million_targets_usd()
        );
    }
    Ok(())
}
