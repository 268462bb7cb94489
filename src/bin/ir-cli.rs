//! `ir-cli` — command-line front end for the INDEL realignment system.
//!
//! ```text
//! ir-cli gen --chromosome 21 --scale 1e-4 --seed 7 --out targets.tio
//! ir-cli workloads --family short-read|long-read|deep-panel|metagenomic
//!                  [--scale F] [--count N] [--seed S] [--out FILE]
//! ir-cli realign targets.tio [--rule paper|gatk] [--threads N]
//! ir-cli simulate targets.tio [--units 32] [--lanes 1|32] [--sched sync|async]
//! ir-cli serve targets.tio [--shards N] [--batch B] [--deadline-us D]
//!                          [--rate R] [--seed S] [--faults 0|1] [--threads N]
//!                          [--slo-ms S] [--json FILE] [--trace FILE]
//!                          [--family F] [--pool hetero] [--tenants N]
//!                          [--tenant-quota Q] [--fleet N] [--hop-us H]
//!                          [--autoscale 0|1] [--spot-rate PER_HOUR]
//!                          [--parity 0|1]
//! ir-cli fuzz [--seed S] [--iters N] [--corpus DIR]
//! ir-cli kernel [--format table|name]
//! ir-cli bench-snapshot [--results DIR] [--rev REV] [--out FILE]
//! ir-cli bench-diff <OLD.json> <NEW.json>
//! ```
//!
//! `gen` writes a synthetic chromosome workload in the text interchange
//! format; `workloads` generates a shape-family workload
//! (`ir_workloads::ShapeFamily`) and prints the unit configuration a
//! fabric sized for that family would use; `realign` runs the software
//! realigner over a target file;
//! `simulate` runs the same file through the cycle-level accelerated
//! system and reports timing; `serve` replays the file as Poisson
//! traffic through the batched realignment service and reports
//! throughput, latency percentiles and SLO attainment (optionally
//! exporting the structured report as JSON and the per-shard spans as a
//! Perfetto trace); `fuzz` runs the differential greybox fuzzer across
//! every backend pair, persisting minimized divergence reproducers
//! under the corpus directory, and exits nonzero if any divergence was
//! found; `kernel` prints the WHD kernel dispatch table — which
//! `std::arch` kernels this CPU can run, which one `IR_KERNEL`/auto
//! detection selected, and the typed fallback diagnostic when the
//! request could not be honored (always exit 0: dispatch degrades, it
//! never fails); `bench-snapshot` assembles the perf-trajectory snapshot
//! (`BENCH_<n>.json`) from a results directory produced by
//! `scripts/run_all_figures.sh`; `bench-diff` compares two snapshots
//! under the per-metric tolerance bands and exits nonzero on any
//! regression.

use std::process::ExitCode;

use ir_system::baselines::parallel::realign_parallel;
use ir_system::core::{IndelRealigner, SelectionRule};
use ir_system::fpga::{derive_shape_config, AcceleratedSystem, FaultRates, FpgaParams, Scheduling};
use ir_system::fuzz::{iters_from_env, FuzzConfig};
use ir_system::genome::tio;
use ir_system::genome::{Chromosome, RealignmentTarget};
use ir_system::serve::{
    AutoscalerConfig, FaultInjection, FleetConfig, FleetService, RealignService, Request,
    ServeConfig, ShardSpec, SpotProfile, TenantQuota,
};
use ir_system::workloads::{ArrivalProcess, ShapeFamily, WorkloadConfig, WorkloadGenerator};

const USAGE: &str = "\
usage:
  ir-cli gen --chromosome <1-22|X|Y> [--scale F] [--seed N] [--out FILE]
  ir-cli workloads --family <short-read|long-read|deep-panel|metagenomic>
               [--scale F] [--count N] [--seed S] [--out FILE]
  ir-cli realign <FILE> [--rule paper|gatk] [--threads N]
  ir-cli simulate <FILE> [--units N] [--lanes 1|32] [--sched sync|async]
  ir-cli serve <FILE> [--shards N] [--batch B] [--deadline-us D] [--rate R]
               [--seed S] [--faults 0|1] [--threads N] [--slo-ms S]
               [--json FILE] [--trace FILE] [--family F] [--pool hetero]
               [--tenants N] [--tenant-quota Q]
               [--fleet N] [--hop-us H] [--autoscale 0|1]
               [--spot-rate PER_HOUR] [--parity 0|1]
  ir-cli fuzz [--seed S] [--iters N] [--corpus DIR]
  ir-cli kernel [--format table|name]
  ir-cli bench-snapshot [--results DIR] [--rev REV] [--out FILE]
  ir-cli bench-diff <OLD.json> <NEW.json>
";

/// Minimal flag parser: `--key value` pairs plus positional arguments.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?
                    .clone();
                flags.push((key.to_string(), value));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e| format!("bad --{key} '{raw}': {e}")),
        }
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let chromosome: Chromosome = args
        .flag("chromosome")
        .ok_or("gen requires --chromosome")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let scale: f64 = args.flag_parse("scale", 1e-4)?;
    let seed: u64 = args.flag_parse("seed", WorkloadConfig::default().seed)?;
    let out = args.flag("out").unwrap_or("targets.tio").to_string();

    let generator = WorkloadGenerator::new(WorkloadConfig {
        scale,
        seed,
        ..WorkloadConfig::default()
    });
    let workload = generator.chromosome(chromosome);
    let stats = workload.stats();

    let mut buffer = Vec::new();
    tio::write_targets(&mut buffer, &workload.targets).map_err(|e| e.to_string())?;
    std::fs::write(&out, &buffer).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} targets for {chromosome} ({} reads, {:.2e} worst-case comparisons) to {out}",
        stats.num_targets, stats.total_reads, stats.worst_case_comparisons as f64
    );
    Ok(())
}

fn cmd_workloads(args: &Args) -> Result<(), String> {
    let family: ShapeFamily = args
        .flag("family")
        .ok_or("workloads requires --family (short-read|long-read|deep-panel|metagenomic)")?
        .parse()?;
    let scale: f64 = args.flag_parse("scale", 1e-4)?;
    let count: usize = args.flag_parse("count", 16)?;
    let seed: u64 = args.flag_parse("seed", 7)?;

    let profile = family.profile();
    let targets = profile.generator(scale).targets(count, seed);
    let (mut reads, mut naive, mut bytes) = (0u64, 0u64, 0u64);
    let (mut max_reads, mut max_cons_len) = (0usize, 0usize);
    for t in &targets {
        let shape = t.shape();
        reads += shape.num_reads as u64;
        naive += shape.worst_case_comparisons();
        bytes += shape.input_bytes();
        max_reads = max_reads.max(shape.num_reads);
        max_cons_len = max_cons_len.max(shape.consensus_lens.iter().copied().max().unwrap_or(0));
    }
    println!(
        "{family}: {} targets, {reads} reads (max {max_reads}/target), \
         longest consensus {max_cons_len} bp, {:.2e} worst-case comparisons, {bytes} input bytes",
        targets.len(),
        naive as f64
    );

    let shape = derive_shape_config(&profile.limits(), &FpgaParams::iracc())
        .map_err(|e| format!("deriving the {family} unit configuration: {e}"))?;
    println!(
        "derived fabric: {} units ({} max at {} BRAM36/unit, {:.1}% BRAM), \
         geometry {}x{} B consensuses / {}x{} B reads",
        shape.params.num_units,
        shape.max_units,
        shape.unit_bram36_blocks,
        shape.resources.bram_utilization * 100.0,
        shape.geometry.max_consensuses,
        shape.geometry.consensus_slot_bytes,
        shape.geometry.max_reads,
        shape.geometry.read_slot_bytes
    );

    if let Some(out) = args.flag("out") {
        let mut buffer = Vec::new();
        tio::write_targets(&mut buffer, &targets).map_err(|e| e.to_string())?;
        std::fs::write(out, &buffer).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {} targets to {out}", targets.len());
    }
    Ok(())
}

fn load_targets(args: &Args) -> Result<Vec<RealignmentTarget>, String> {
    let path = args
        .positional
        .get(1)
        .ok_or("missing target file argument")?;
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let targets = tio::read_targets(file).map_err(|e| e.to_string())?;
    if targets.is_empty() {
        return Err(format!("{path} contains no targets"));
    }
    println!("loaded {} targets from {path}", targets.len());
    Ok(targets)
}

fn cmd_realign(args: &Args) -> Result<(), String> {
    let targets = load_targets(args)?;
    let rule = match args.flag("rule").unwrap_or("paper") {
        "paper" => SelectionRule::AbsDiffVsReference,
        "gatk" => SelectionRule::TotalMinWhd,
        other => return Err(format!("unknown --rule '{other}' (paper|gatk)")),
    };
    let threads: usize = args.flag_parse("threads", 1)?;

    let realigner = IndelRealigner::new().with_selection_rule(rule);
    let start = std::time::Instant::now();
    let (results, ops) = realign_parallel(&targets, threads.max(1), realigner);
    let elapsed = start.elapsed();

    let realigned: usize = results.iter().map(|r| r.realigned_count()).sum();
    let picked_alt = results.iter().filter(|r| r.best_consensus() != 0).count();
    println!(
        "realigned {realigned} reads across {} targets ({picked_alt} picked an alternative consensus)",
        targets.len()
    );
    println!(
        "{} base comparisons executed ({:.1}% pruned away) in {:.3} s on {threads} thread(s)",
        ops.base_comparisons,
        ops.pruned_fraction() * 100.0,
        elapsed.as_secs_f64()
    );
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let targets = load_targets(args)?;
    let units: usize = args.flag_parse("units", 32)?;
    let lanes: usize = args.flag_parse("lanes", 32)?;
    let scheduling = match args.flag("sched").unwrap_or("async") {
        "async" => Scheduling::Asynchronous,
        "sync" => Scheduling::Synchronous,
        other => return Err(format!("unknown --sched '{other}' (sync|async)")),
    };

    let params = FpgaParams {
        num_units: units,
        lanes,
        ..FpgaParams::iracc()
    };
    let system = AcceleratedSystem::new(params, scheduling).map_err(|e| e.to_string())?;
    let run = system.run(&targets);
    println!(
        "{units} units × {lanes} lane(s), {scheduling:?}: wall {:.6} s, utilization {:.0}%, \
         {:.2e} comparisons/s, DMA {:.3}% of wall",
        run.wall_time_s,
        run.utilization() * 100.0,
        run.comparisons_per_second(),
        run.dma_fraction() * 100.0
    );
    let realigned: usize = run.results.iter().map(|r| r.realigned_count()).sum();
    println!("functional result: {realigned} reads realigned (bit-identical to software)");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let targets = load_targets(args)?;
    let shards: usize = args.flag_parse("shards", 2)?;
    let max_batch: usize = args.flag_parse("batch", 32)?;
    let deadline_us: f64 = args.flag_parse("deadline-us", 500.0)?;
    let rate: f64 = args.flag_parse("rate", 50_000.0)?;
    let seed: u64 = args.flag_parse("seed", 41)?;
    let faults: u8 = args.flag_parse("faults", 0)?;
    let threads: usize = args.flag_parse("threads", 1)?;
    let slo_ms: f64 = args.flag_parse("slo-ms", ServeConfig::default().slo_deadline_s * 1e3)?;
    let family: ShapeFamily = args.flag_parse("family", ShapeFamily::default())?;
    let tenants: usize = args.flag_parse("tenants", 0)?;
    let tenant_quota: usize = args.flag_parse("tenant-quota", 64)?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!(
            "--rate must be a positive request rate, got {rate}"
        ));
    }

    let base = ServeConfig::default();
    // `--pool hetero` builds one shard per requested slot, cycling the
    // shape families in declaration order; each shard's buffer geometry
    // and unit count are re-derived for its family's envelope, and the
    // service routes each request only to shards advertising its family.
    let pool = match args.flag("pool") {
        None => None,
        Some("hetero") => Some(
            (0..shards)
                .map(|i| {
                    let fam = ShapeFamily::ALL[i % ShapeFamily::ALL.len()];
                    ShardSpec::for_families(&[fam], &base.params, base.scheduling)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?,
        ),
        Some(other) => return Err(format!("unknown --pool '{other}' (hetero)")),
    };
    let config = ServeConfig {
        shards,
        max_batch,
        flush_deadline_s: deadline_us * 1e-6,
        slo_deadline_s: slo_ms * 1e-3,
        threads: threads.max(1),
        faults: (faults != 0).then(|| FaultInjection {
            seed,
            rates: FaultRates::default_rates(),
        }),
        pool,
        tenants: (tenants > 0).then(|| {
            vec![
                TenantQuota {
                    max_queued: tenant_quota.max(1)
                };
                tenants
            ]
        }),
        ..base
    };
    let times = ArrivalProcess::poisson(seed, rate).times(targets.len());
    let requests: Vec<Request> = targets
        .into_iter()
        .zip(times)
        .enumerate()
        .map(|(i, (t, at))| {
            Request::new(i as u64, at, t)
                .with_family(family)
                .with_tenant(if tenants > 0 { i % tenants } else { 0 })
        })
        .collect();

    let fleet_nodes: usize = args.flag_parse("fleet", 0)?;
    if fleet_nodes > 0 {
        return cmd_serve_fleet(args, config, requests, fleet_nodes, seed, slo_ms);
    }

    let mut service = RealignService::new(config).map_err(|e| e.to_string())?;
    let report = service.run(requests).map_err(|e| e.to_string())?;
    println!(
        "{shards} shard(s), max batch {max_batch}, deadline {deadline_us} µs, \
         {rate:.0} req/s offered (seed {seed})"
    );
    println!(
        "completed {}/{} ({} rejected with retry-after), {} batches \
         (mean occupancy {:.2})",
        report.completed(),
        report.offered(),
        report.rejections.len(),
        report.batches,
        report.mean_batch_occupancy()
    );
    println!(
        "throughput {:.0} req/s over {:.6} s of virtual time",
        report.throughput_rps(),
        report.makespan_s
    );
    if report.completed() > 0 {
        let pctl = |p| {
            report
                .latency_percentile_s(p)
                .map(|s| s * 1e3)
                .map_err(|e| e.to_string())
        };
        println!(
            "latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
            pctl(50.0)?,
            pctl(95.0)?,
            pctl(99.0)?
        );
        println!(
            "SLO attainment {:.4} at a {slo_ms} ms deadline ({} met, {} missed)",
            report.slo_attainment(),
            report.counters.counter("serve/slo_met"),
            report.counters.counter("serve/slo_missed")
        );
    }
    if args.flag("pool").is_some() {
        println!(
            "heterogeneous pool: requests tagged {family}, {} unroutable",
            report.counters.counter("serve/unroutable")
        );
    }
    for t in 0..tenants {
        println!(
            "tenant {t}: {} accepted, {} rejected, {} completed (SLO {} met / {} missed)",
            report
                .counters
                .counter(&format!("serve/tenant{t}/accepted")),
            report
                .counters
                .counter(&format!("serve/tenant{t}/rejected")),
            report
                .counters
                .counter(&format!("serve/tenant{t}/completed")),
            report.counters.counter(&format!("serve/tenant{t}/slo_met")),
            report
                .counters
                .counter(&format!("serve/tenant{t}/slo_missed")),
        );
    }
    if let Some(path) = args.flag("json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("structured report -> {path}");
    }
    if let Some(path) = args.flag("trace") {
        std::fs::write(path, report.trace.to_chrome_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("per-shard Perfetto trace -> {path} (open at https://ui.perfetto.dev)");
    }
    if faults != 0 {
        let r = &report.resilience;
        println!(
            "resilience: {} faults injected, {} retries, {} fallbacks, {} unit(s) quarantined",
            r.faults.total(),
            r.retries,
            r.fallbacks,
            r.quarantined_units.len()
        );
    }
    Ok(())
}

/// `ir-cli serve --fleet N`: run the request stream against a multi-node
/// fleet (consistent-hash router, optional SLO autoscaler and spot
/// interruptions). `--parity 1` additionally replays the same stream
/// through the single-pool service and fails unless the 1-node fleet is
/// bitwise identical — the same gate `tests/fleet.rs` and CI enforce.
fn cmd_serve_fleet(
    args: &Args,
    node: ServeConfig,
    requests: Vec<Request>,
    nodes: usize,
    seed: u64,
    slo_ms: f64,
) -> Result<(), String> {
    let hop_us: f64 = args.flag_parse("hop-us", 2.0)?;
    let autoscale: u8 = args.flag_parse("autoscale", 0)?;
    let spot_rate: f64 = args.flag_parse("spot-rate", 0.0)?;
    let parity: u8 = args.flag_parse("parity", 0)?;
    let config = FleetConfig {
        nodes,
        node: node.clone(),
        hop_latency_s: hop_us * 1e-6,
        autoscale: (autoscale != 0).then(|| AutoscalerConfig {
            p99_slo_s: slo_ms * 1e-3,
            ..AutoscalerConfig::default()
        }),
        spot: (spot_rate > 0.0).then_some(SpotProfile {
            seed,
            interruptions_per_hour: spot_rate,
            drain_grace_s: 300e-6,
        }),
        ..FleetConfig::default()
    };
    let mut fleet = FleetService::new(config).map_err(|e| e.to_string())?;
    let report = fleet.run(requests.clone()).map_err(|e| e.to_string())?;
    println!(
        "fleet of {nodes} node(s) (peak {}), hop {hop_us} µs, autoscale {}, spot rate {spot_rate}/h",
        report.peak_nodes,
        if autoscale != 0 { "on" } else { "off" },
    );
    println!(
        "completed {}/{} ({} rejected with retry-after), {} batches over {:.6} s of virtual time",
        report.completed(),
        report.offered(),
        report.rejected(),
        report.batches(),
        report.makespan_s
    );
    if report.completed() > 0 {
        let pctl = |p| {
            report
                .latency_percentile_s(p)
                .map(|s| s * 1e3)
                .map_err(|e| e.to_string())
        };
        println!(
            "throughput {:.0} req/s, latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
            report.throughput_rps(),
            pctl(50.0)?,
            pctl(95.0)?,
            pctl(99.0)?
        );
        println!(
            "SLO attainment {:.4} at a {slo_ms} ms deadline",
            report.slo_attainment()
        );
    }
    println!(
        "cost: {:.6} node-seconds, {:.6} USD ({:.4} USD per million targets)",
        report.node_seconds(),
        report.cost_usd(),
        report.cost_per_million_targets_usd()
    );
    if spot_rate > 0.0 {
        println!(
            "spot: {} interruption(s), {} drained, {} rerouted, {} ms of lost work",
            report.counters.counter("fleet/interruptions"),
            report.counters.counter("fleet/drained"),
            report.counters.counter("fleet/rerouted"),
            report.counters.counter("fleet/lost_work_ms")
        );
    }
    if autoscale != 0 {
        println!(
            "autoscaler: {} scale-up(s), {} scale-down(s), peak {} node(s)",
            report.counters.counter("fleet/scale_ups"),
            report.counters.counter("fleet/scale_downs"),
            report.peak_nodes
        );
    }
    if let Some(path) = args.flag("json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("structured fleet report -> {path}");
    }
    if parity != 0 {
        if nodes != 1 || autoscale != 0 || spot_rate > 0.0 || hop_us != 0.0 {
            return Err(
                "--parity 1 requires --fleet 1 --hop-us 0 without --autoscale/--spot-rate"
                    .to_string(),
            );
        }
        let mut single = RealignService::new(node).map_err(|e| e.to_string())?;
        let golden = single.run(requests).map_err(|e| e.to_string())?;
        let node_report = &report.node_reports[0];
        if node_report.to_json() != golden.to_json()
            || report.makespan_s.to_bits() != golden.makespan_s.to_bits()
        {
            return Err("1-node fleet diverged from the single-pool service".to_string());
        }
        println!("parity: 1-node fleet bitwise-identical to the single-pool service");
    }
    Ok(())
}

/// Geometric mean of strictly positive values.
fn gmean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Lowercases a table header into a metric-key slug (`IRAcc-TaskP ×` →
/// `iracc-taskp`): alphanumeric runs joined by single dashes.
fn slugify(header: &str) -> String {
    let mut out = String::new();
    for ch in header.chars() {
        if ch.is_ascii_alphanumeric() {
            out.extend(ch.to_lowercase());
        } else if !out.is_empty() && !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

fn cmd_kernel(args: &Args) -> Result<(), String> {
    use ir_system::core::kernel;
    use ir_system::core::KernelKind;

    let active = kernel::active();
    match args.flag("format").unwrap_or("table") {
        "name" => {
            println!("{active}");
            return Ok(());
        }
        "table" => {}
        other => return Err(format!("bad --format '{other}' (expected table or name)")),
    }

    println!("WHD kernel dispatch");
    println!("  kernel   available  note");
    for kind in KernelKind::ALL {
        println!(
            "  {:<8} {:<10} {}",
            kind.name(),
            if kind.is_available() { "yes" } else { "no" },
            if kind == active { "<- active" } else { "" }
        );
    }
    match std::env::var("IR_KERNEL") {
        Ok(v) if !v.trim().is_empty() => println!("IR_KERNEL={v}"),
        _ => println!("IR_KERNEL unset (auto-detected widest ISA)"),
    }
    // A request that could not be honored degrades to the widest runnable
    // kernel with a typed diagnostic — report it, but still exit 0.
    if let Some(diag) = kernel::active_diagnostic() {
        println!("diagnostic: {diag}");
    }
    Ok(())
}

fn cmd_bench_snapshot(args: &Args) -> Result<(), String> {
    use ir_system::telemetry::json::{parse_json, JsonValue};
    use ir_system::telemetry::BenchSnapshot;

    let results = std::path::Path::new(args.flag("results").unwrap_or("results"));
    let out = args.flag("out").unwrap_or("BENCH.json");
    let rev = args.flag("rev").unwrap_or("unknown");

    // Required: the wall-clock summary run_all_figures.sh writes.
    let summary_path = results.join("bench_summary.json");
    let summary_text = std::fs::read_to_string(&summary_path)
        .map_err(|e| format!("reading {}: {e}", summary_path.display()))?;
    let summary = parse_json(&summary_text)
        .map_err(|e| format!("parsing {}: {e}", summary_path.display()))?;
    let ir_scale = summary
        .get("ir_scale")
        .and_then(JsonValue::as_f64)
        .ok_or("bench_summary.json missing ir_scale")?;
    let ir_threads = summary
        .get("threads")
        .and_then(JsonValue::as_f64)
        .ok_or("bench_summary.json missing threads")? as u64;
    // The kernel the figure binaries dispatched to, recorded by
    // run_all_figures.sh; older summaries lack the field.
    let kernel = summary
        .get("kernel")
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown")
        .to_string();
    let mut snap = BenchSnapshot::new(rev, ir_scale, ir_threads).with_kernel(&kernel);
    for (name, wall) in summary
        .get("wall_ms")
        .and_then(JsonValue::as_object)
        .ok_or("bench_summary.json missing wall_ms")?
    {
        let ms = wall
            .as_f64()
            .ok_or_else(|| format!("wall_ms entry {name} is not a number"))?;
        snap.metrics.insert(format!("wall_ms/{name}"), ms);
    }

    // Optional: the serving layer's structured report (serve_load writes
    // it for the adaptive mode).
    let serve_path = results.join("serve_report.json");
    if let Ok(text) = std::fs::read_to_string(&serve_path) {
        let report =
            parse_json(&text).map_err(|e| format!("parsing {}: {e}", serve_path.display()))?;
        for (metric, source) in [
            ("serve/throughput_rps", "throughput_rps"),
            ("serve/p50_us", "latency_p50_us"),
            ("serve/p95_us", "latency_p95_us"),
            ("serve/p99_us", "latency_p99_us"),
            ("serve/slo_attainment", "slo_attainment"),
        ] {
            let v = report
                .get(source)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("serve_report.json missing {source}"))?;
            snap.metrics.insert(metric.to_string(), v);
        }
    }

    // Optional: the fleet's structured report (serve_fleet writes it for
    // the 4-node topology).
    let fleet_path = results.join("fleet_report.json");
    if let Ok(text) = std::fs::read_to_string(&fleet_path) {
        let report =
            parse_json(&text).map_err(|e| format!("parsing {}: {e}", fleet_path.display()))?;
        for (metric, source) in [
            ("fleet/throughput_rps", "throughput_rps"),
            ("fleet/p99_us", "latency_p99_us"),
            ("fleet/slo_attainment", "slo_attainment"),
            (
                "fleet/cost_per_mtargets_usd",
                "cost_per_million_targets_usd",
            ),
        ] {
            let v = report
                .get(source)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("fleet_report.json missing {source}"))?;
            snap.metrics.insert(metric.to_string(), v);
        }
    }

    // Optional: the workload atlas's per-family characterization rows.
    let atlas_path = results.join("workload_atlas.json");
    if let Ok(text) = std::fs::read_to_string(&atlas_path) {
        let atlas =
            parse_json(&text).map_err(|e| format!("parsing {}: {e}", atlas_path.display()))?;
        let families = atlas
            .get("families")
            .and_then(JsonValue::as_array)
            .ok_or("workload_atlas.json missing families")?;
        for row in families {
            let name = row
                .get("family")
                .and_then(JsonValue::as_str)
                .ok_or("workload_atlas.json row missing family")?;
            for source in [
                "units",
                "prune_rate",
                "consensus_occupancy",
                "read_occupancy",
            ] {
                let v = row
                    .get(source)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("workload_atlas.json {name} row missing {source}"))?;
                snap.metrics.insert(format!("atlas/{name}/{source}"), v);
            }
        }
    }

    // Optional: kernel speedup ratios — the geometric mean of every
    // speedup column of the fig9 per-chromosome table.
    let fig9_path = results.join("fig9_speedup.csv");
    if let Ok(text) = std::fs::read_to_string(&fig9_path) {
        let mut lines = text.lines();
        let headers: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); headers.len()];
        for line in lines {
            for (i, cell) in line.split(',').enumerate().skip(1) {
                if let (Some(col), Ok(v)) = (columns.get_mut(i), cell.parse::<f64>()) {
                    col.push(v);
                }
            }
        }
        for (header, column) in headers.iter().zip(&columns).skip(1) {
            if let Some(g) = gmean(column) {
                snap.metrics
                    .insert(format!("speedup/{}-gmean", slugify(header)), g);
            }
        }
    }

    let json = snap.to_json();
    BenchSnapshot::from_json(&json).map_err(|e| format!("snapshot failed self-check: {e}"))?;
    std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} metrics (rev {rev}, scale {ir_scale}, {ir_threads} thread(s), kernel {kernel}) \
         to {out}",
        snap.metrics.len()
    );
    Ok(())
}

fn cmd_bench_diff(args: &Args) -> Result<(), String> {
    use ir_system::telemetry::BenchSnapshot;

    let old_path = args
        .positional
        .get(1)
        .ok_or("bench-diff needs <OLD.json>")?;
    let new_path = args
        .positional
        .get(2)
        .ok_or("bench-diff needs <NEW.json>")?;
    let load = |path: &str| -> Result<BenchSnapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        BenchSnapshot::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    println!(
        "baseline {old_path} (rev {}, scale {}) vs {new_path} (rev {}, scale {})",
        old.git_rev, old.ir_scale, new.git_rev, new.ir_scale
    );
    let diff = old.diff(&new);
    print!("{}", diff.render());
    if diff.has_regressions() {
        Err("perf regression against the baseline snapshot".to_string())
    } else {
        Ok(())
    }
}

fn cmd_fuzz(args: &Args) -> Result<(), String> {
    let seed: u64 = args.flag_parse("seed", 0)?;
    let iters: u64 = args.flag_parse("iters", iters_from_env(ir_system::fuzz::DEFAULT_ITERS))?;
    let corpus_dir = args.flag("corpus").map(std::path::PathBuf::from);

    let config = FuzzConfig {
        seed,
        iters,
        corpus_dir: corpus_dir.clone(),
        minimize_budget: 200,
    };
    let report = ir_system::fuzz::fuzz(&config).map_err(|e| e.to_string())?;
    println!(
        "fuzz seed {seed}: {} case(s) executed, {} novel fingerprint(s) ({} unique outcomes)",
        report.iters,
        report.novel,
        report.fingerprints.len()
    );
    for d in &report.discoveries {
        match &d.saved_to {
            Some(path) => println!("divergence {} -> {}", d.signature, path.display()),
            None => println!("divergence {} (already in corpus)", d.signature),
        }
        println!("  {}", d.detail);
    }
    if report.is_clean() {
        println!("all backend pairs agree bitwise");
        Ok(())
    } else {
        Err(format!(
            "{} unique divergence(s) discovered",
            report.discoveries.len()
        ))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args),
        Some("workloads") => cmd_workloads(&args),
        Some("realign") => cmd_realign(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("serve") => cmd_serve(&args),
        Some("fuzz") => cmd_fuzz(&args),
        Some("kernel") => cmd_kernel(&args),
        Some("bench-snapshot") => cmd_bench_snapshot(&args),
        Some("bench-diff") => cmd_bench_diff(&args),
        _ => Err("missing or unknown subcommand".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
