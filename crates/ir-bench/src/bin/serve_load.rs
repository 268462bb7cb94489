//! `serve_load` — open-loop load generator for the `ir-serve` batched
//! realignment service.
//!
//! Replays a seeded bench-profile workload as Poisson traffic against two
//! service configurations sharing the same arrival stream:
//!
//! - **batch1** — `max_batch = 1`: every request is dispatched alone (no
//!   coalescing), so each batch occupies one of the backend's 32 units
//!   and pays the full DMA-chain + command overhead by itself.
//! - **adaptive** — `max_batch = 32` with a flush deadline: the batcher
//!   fills the sea of units when traffic allows and flushes partial
//!   batches when the oldest request's deadline expires.
//!
//! The offered rate is calibrated from a deterministic full-batch probe
//! (no host clock is involved anywhere), so the emitted table is
//! byte-identical across runs, machines and `IR_THREADS` settings — the
//! property the CI `serve-smoke` job diffs.
//!
//! Knobs: `IR_SCALE` (workload size), `IR_THREADS` (oracle pre-warm
//! workers; results unchanged), `IR_RESULTS_DIR` (artifact directory).

use std::time::Instant;

use ir_bench::{bench_workload, fmt_duration, scale_from_env, threads_from_env, Table};
use ir_serve::{RealignService, Request, ServeConfig, ServiceReport};
use ir_workloads::ArrivalProcess;

/// Workload / arrival seeds (arbitrary but fixed).
const WORKLOAD_SEED: u64 = 2026;
const ARRIVAL_SEED: u64 = 41;

/// Offered load as a fraction of the calibrated adaptive-batch capacity.
const LOAD_FACTOR: f64 = 0.8;

fn service_config(max_batch: usize, threads: usize) -> ServeConfig {
    ServeConfig {
        max_batch,
        threads,
        ..ServeConfig::default()
    }
}

fn run_mode(
    label: &str,
    max_batch: usize,
    threads: usize,
    targets: &[ir_genome::RealignmentTarget],
    rate_rps: f64,
) -> (String, ServiceReport) {
    let times = ArrivalProcess::poisson(ARRIVAL_SEED, rate_rps).times(targets.len());
    let requests: Vec<Request> = targets
        .iter()
        .zip(&times)
        .enumerate()
        .map(|(i, (t, &at))| Request::new(i as u64, at, t.clone()))
        .collect();
    let mut service =
        RealignService::new(service_config(max_batch, threads)).expect("valid service config");
    let host_start = Instant::now();
    let report = service.run(requests).expect("service run succeeds");
    println!(
        "{label}: served {}/{} requests in {} of host time",
        report.completed(),
        report.offered(),
        fmt_duration(host_start.elapsed().as_secs_f64())
    );
    (label.to_string(), report)
}

fn main() {
    let scale = scale_from_env();
    let threads = threads_from_env();
    let count = ((48_000.0 * scale).ceil() as usize).max(64);
    println!("serve_load: {count} requests at scale {scale:.0e}, {threads} oracle thread(s)\n");
    let targets = bench_workload(scale).targets(count, WORKLOAD_SEED);

    // Calibrate capacity: one shard executing full batches back to back.
    let probe_config = service_config(32, threads);
    let mut probe = ir_serve::Shard::new(0, &probe_config).expect("probe shard");
    for chunk in targets.chunks(probe_config.max_batch) {
        let _ = probe.run_batch(chunk).expect("probe batch");
    }
    let capacity_rps = probe_config.shards as f64 * targets.len() as f64 / probe.busy_s();
    let rate_rps = LOAD_FACTOR * capacity_rps;
    println!(
        "calibrated adaptive capacity {:.0} req/s; offering {:.0} req/s ({}% load)\n",
        capacity_rps,
        rate_rps,
        (LOAD_FACTOR * 100.0) as u64
    );

    let modes = [("batch1", 1usize), ("adaptive", 32usize)];
    let mut table = Table::new(vec![
        "mode",
        "offered_rps",
        "completed",
        "rejected",
        "throughput_rps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "batch_occupancy",
        "queue_depth_hwm",
    ]);
    let mut throughputs = Vec::new();
    let mut p99s = Vec::new();
    let mut adaptive_report = None;
    for (label, max_batch) in modes {
        let (label, report) = run_mode(label, max_batch, threads, &targets, rate_rps);
        let is_adaptive = label == "adaptive";
        let pctl = |p| report.latency_percentile_s(p).expect("responses completed");
        throughputs.push(report.throughput_rps());
        p99s.push(pctl(99.0));
        table.row(vec![
            label,
            format!("{rate_rps:.0}"),
            format!("{}", report.completed()),
            format!("{}", report.rejections.len()),
            format!("{:.0}", report.throughput_rps()),
            format!("{:.3}", pctl(50.0) * 1e3),
            format!("{:.3}", pctl(95.0) * 1e3),
            format!("{:.3}", pctl(99.0) * 1e3),
            format!("{:.2}", report.mean_batch_occupancy()),
            format!("{}", report.counters.gauge("serve/queue_depth_hwm")),
        ]);
        if is_adaptive {
            adaptive_report = Some(report);
        }
    }
    println!();
    table.emit("serve_load");
    // The adaptive mode's structured report, pinned byte for byte by the
    // committed results/serve_report.json.
    if let Some(report) = adaptive_report {
        let path = ir_bench::results_dir().join("serve_report.json");
        match std::fs::write(&path, report.to_json()) {
            Ok(()) => println!("[json] {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        println!(
            "adaptive SLO attainment: {:.4} (deadline {:.1} ms)",
            report.slo_attainment(),
            report.slo_deadline_s * 1e3
        );
    }
    println!(
        "adaptive batching: {:.2}x throughput vs batch-size-1, p99 {:.3} ms vs {:.3} ms",
        throughputs[1] / throughputs[0],
        p99s[1] * 1e3,
        p99s[0] * 1e3
    );
}
