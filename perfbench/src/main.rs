//! Layered host-time benchmark of the INDEL-realignment simulator.
//!
//! ```text
//! perfbench --workload <chrom-sweep|schedule-replay|serve-open-loop>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench compare <record.json> <record.json>
//! ```
//!
//! A run prints its environment, every metric by name and unit, and as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). It also writes a record of itself, and with `--trace 1` the
//! Chrome trace of its spans, under `perfbench/out/`. See `README.md`.

mod common;
mod digest;
mod harness;
mod replay;
mod serve;
mod span;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ir_telemetry::json::{escape_json_string, parse_json, JsonValue};

use crate::common::Report;
use crate::span::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["chrom-sweep", "schedule-replay", "serve-open-loop"];

/// End-to-end metrics (host clock), printed with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [
    ("target_runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer that does no work
/// on a workload reads 0 there.
const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.gen_s", "s"),
    ("workloads.targets", "count"),
    ("batch.pack_s", "s"),
    ("kernel.serial.sweep_s", "s"),
    ("kernel.iracc.sweep_s", "s"),
    ("kernel.serial.ns_per_cmp", "ns"),
    ("kernel.iracc.ns_per_cmp", "ns"),
    ("kernel.comparisons", "count"),
    ("kernel.prune_frac", "ratio"),
    ("oracle.serial.busy_s", "s"),
    ("oracle.iracc.busy_s", "s"),
    ("oracle.serial.target_p50_us", "us"),
    ("oracle.serial.target_p99_us", "us"),
    ("oracle.iracc.target_p50_us", "us"),
    ("oracle.iracc.target_p99_us", "us"),
    ("oracle.hit_frac", "ratio"),
    ("oracle.entries", "count"),
    ("engine.busy_s", "s"),
    ("engine.sync.us_per_target", "us"),
    ("engine.async.us_per_target", "us"),
    ("engine.telemetry_overhead", "ratio"),
    ("resilience.us_per_target", "us"),
    ("resilience.retries", "count"),
    ("resilience.fallbacks", "count"),
    ("baselines.busy_s", "s"),
    ("serve.run_s", "s"),
    ("serve.self_s", "s"),
    ("serve.us_per_batch", "us"),
    ("serve.batches", "count"),
    ("serve.batch_occupancy", "count"),
    ("serve.rejected_frac", "ratio"),
    ("telemetry.emit_s", "s"),
    ("telemetry.emit_bytes", "bytes"),
    ("fpga.unit_utilization", "ratio"),
    ("fpga.dma_fraction", "ratio"),
    ("fpga.modeled_wall_s", "s"),
    ("sweep.straggler_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("host.raw_runs_per_s", "1/s"),
    ("host.raw_setup_s", "s"),
    ("host.reference_s", "s"),
    ("modeled_speedup_gmean", "x"),
    ("modeled_p99_ms", "ms"),
    ("modeled_slo_attainment", "ratio"),
    ("failed_frac", "ratio"),
];

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed; 0 is the default workload.
    pub seed: u64,
    /// Seconds the timed phase runs.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <chrom-sweep|schedule-replay|serve-open-loop> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     perfbench compare <record.json> <record.json>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?,
            "--trace" => {
                opts.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

/// The checkout this benchmark was built from.
fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// `HEAD` of the checkout's git metadata, or `unknown` outside a clone.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON number; non-finite values (a refused request at a tail
/// percentile) are written as -1.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

fn measure(opts: &Opts) -> ExitCode {
    // The cold path must never load memoized datapath results from disk.
    std::env::remove_var("IR_ORACLE_CACHE");
    let root = checkout_root();
    let tracer = Tracer::new(opts.trace);
    let report: Report = match opts.workload.as_str() {
        "chrom-sweep" => sweep::run(opts, &tracer),
        "schedule-replay" => replay::run(opts, &tracer),
        _ => serve::run(opts, &tracer),
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = ir_core::kernel::active();
    let env = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \
         \"threads\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"git_rev\": {}, \
         \"oracle_cache\": \"off\"}}",
        escape_json_string(&opts.workload),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        report.scale,
        report.threads,
        escape_json_string(kernel.name()),
        escape_json_string(&git_rev(&root)),
    );
    println!("perfbench {} (seed {})", opts.workload, opts.seed);
    println!("env: {env}");
    if let Some(diag) = ir_core::kernel::active_diagnostic() {
        println!("kernel: {diag}");
    }

    let digest = report.digest.map(|d| format!("{d:016x}"));
    let mut correct = report.tally.failed == 0 && digest.is_some();
    match (&digest, expected_digest(&opts.workload, opts.seed)) {
        (Some(got), Some(want)) if *got != want => {
            correct = false;
            println!(
                "FAILED digest {got} differs from the committed {want} (perfbench/digests.txt)"
            );
        }
        (Some(got), Some(_)) => println!("digest: {got} (matches perfbench/digests.txt)"),
        (Some(got), None) => println!("digest: {got}"),
        (None, _) => println!("FAILED no pass completed"),
    }
    let failed = if correct || report.tally.failed > 0 {
        report.tally.failed
    } else {
        report.tally.attempted.max(1)
    };
    let attempted = report.tally.attempted.max(1);
    for note in &report.tally.notes {
        println!("{note}");
    }
    let walls: Vec<String> = report
        .pass_walls
        .iter()
        .map(|w| format!("{w:.3}"))
        .collect();
    println!("untraced pass walls (s): {}", walls.join(" "));
    println!(
        "set-up: median of {} = {:.4} s; timed: {} untraced passes of {} target runs",
        report.setups,
        report.setup_s,
        report.pass_walls.len(),
        report.runs_per_pass
    );

    let mut values: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        let mut layers = report.layers.clone();
        for m in &report.modeled {
            layers.entry(m.name).or_insert(m.value);
        }
        layers.insert("failed_frac", failed as f64 / attempted as f64);
        layers.insert("host.raw_runs_per_s", report.raw_runs_per_s);
        layers.insert("host.raw_setup_s", report.raw_setup_s);
        layers.insert("host.reference_s", report.reference_s);
        for (name, unit) in PER_LAYER {
            values.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "target_runs_per_s" => report.runs_per_s,
                "setup_s" => report.setup_s,
                _ => report.peak_rss_mb,
            };
            values.push((name, value, unit));
        }
    }
    for (name, value, unit) in &values {
        println!("metric {name} = {value} {unit}");
    }
    if !opts.trace {
        println!(
            "metric failed_frac = {} ratio ({failed} of {attempted})",
            failed as f64 / attempted as f64
        );
        println!(
            "host times above are at the reference speed; raw: target_runs_per_s = {} 1/s, \
             setup_s = {} s; reference kernel median {} s (nominal {} s)",
            report.raw_runs_per_s,
            report.raw_setup_s,
            report.reference_s,
            harness::REF_NOMINAL_S
        );
    }
    for m in &report.modeled {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    if opts.trace {
        println!(
            "tracing overhead: {:+.2}% of untraced pass wall; layer spans cover {:.1}% of traced pass thread time",
            report.layers.get("trace.overhead_frac").copied().unwrap_or(0.0) * 100.0,
            report.layers.get("trace.coverage").copied().unwrap_or(0.0) * 100.0
        );
    }

    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    let metrics = metrics.join(", ");
    let modeled: Vec<String> = report
        .modeled
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, num(m.value)))
        .collect();
    let out_dir = root.join("perfbench").join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let record = format!(
        "{{\"env\": {env}, \"digest\": {}, \"correct\": {correct}, \"metrics\": {{{metrics}}}, \
         \"modeled\": {{{}}}}}\n",
        digest.as_deref().map_or("null".into(), escape_json_string),
        modeled.join(", ")
    );
    let mut writes = vec![(out_dir.join(format!("{stem}.json")), record)];
    if opts.trace {
        let process = format!("perfbench {} seed {}", opts.workload, opts.seed);
        writes.push((
            out_dir.join(format!("{stem}.trace.json")),
            span::to_chrome_json(&report.spans, &process),
        ));
    }
    for (path, body) in writes {
        match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("[out] {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    ExitCode::SUCCESS
}

/// The committed digest of `workload` for `seed`, if one is committed.
fn expected_digest(workload: &str, seed: u64) -> Option<String> {
    let text = include_str!("../digests.txt");
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut f = l.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == workload && s == seed.to_string() => {
                Some(d.to_string())
            }
            _ => None,
        }
    })
}

/// Compares two run records. Runs measured under different kernels,
/// scales, thread counts or workloads are not comparable.
fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        parse_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let env = |v: &JsonValue, k: &str| match v.get("env").and_then(|e| e.get(k)) {
        Some(JsonValue::String(s)) => s.clone(),
        Some(JsonValue::Number(n)) => n.to_string(),
        _ => "missing".to_string(),
    };
    for key in ["workload", "kernel", "scale", "threads", "trace"] {
        let (ea, eb) = (env(&a, key), env(&b, key));
        if ea != eb {
            println!("not comparable: {key} differs ({ea} vs {eb})");
            return ExitCode::from(3);
        }
    }
    let metrics = |v: &JsonValue| -> BTreeMap<String, f64> {
        v.get("metrics")
            .and_then(JsonValue::as_object)
            .map(|o| {
                o.iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let (ma, mb) = (metrics(&a), metrics(&b));
    for (name, va) in &ma {
        if let Some(vb) = mb.get(name) {
            let ratio = if *va != 0.0 { vb / va } else { f64::NAN };
            println!("{name:32} {va:>16.6} -> {vb:>16.6}  ({ratio:.4}x)");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        if args.len() != 3 {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        return compare(Path::new(&args[1]), Path::new(&args[2]));
    }
    if args.first().map(String::as_str) == Some("--reference-kernel") {
        let threads = args.get(1).and_then(|t| t.parse().ok()).unwrap_or(1);
        println!("{}", harness::reference_kernel(threads));
        return ExitCode::SUCCESS;
    }
    match parse(&args) {
        Ok(opts) => measure(&opts),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse(&args(
            "--workload chrom-sweep --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("chrom-sweep", 7, 12, true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload chrom-sweep --trace 2")).is_err());
        assert!(parse(&args("--workload chrom-sweep --seed")).is_err());
        assert!(parse(&args("--workload chrom-sweep --seconds 0")).is_err());
    }

    /// The metric lists printed here are the ones `BENCHMARK.json` names.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(checkout_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the checkout root");
        let json = parse_json(&text).expect("valid BENCHMARK.json");
        let list = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn committed_digests_parse() {
        for w in WORKLOADS {
            let d = expected_digest(w, 0).expect("a digest per workload for seed 0");
            assert_eq!(d.len(), 16);
            assert!(u64::from_str_radix(&d, 16).is_ok());
        }
        assert_eq!(expected_digest("chrom-sweep", 99), None);
    }
}
