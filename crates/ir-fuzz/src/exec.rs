//! The differential executor: runs one [`FuzzInput`] through every
//! backend pair in the stack and reports divergences as values.
//!
//! Stages, each independently guarded by `catch_unwind` so a panic in one
//! layer becomes a `panic/<stage>` mismatch instead of killing the fuzz
//! loop:
//!
//! - **kernel** — [`ir_fpga::hdc::run_pair`] (scalar reference) vs
//!   [`ir_fpga::hdc::run_read_sweep`] (the dispatched production path,
//!   one [`CandidateBlock`] per target, so ragged multi-row blocks are
//!   exercised) on every (consensus, read) pair, plus every available
//!   explicit-SIMD [`KernelKind`] (AVX2/AVX-512/NEON) sweep differenced
//!   against the portable SWAR sweep over the same block. The extra
//!   backend pairs only add mismatch checks — the corpus fingerprint
//!   hashes the scalar result alone, so every persisted case replays
//!   bitwise-unchanged.
//! - **engine** — the event-driven core's full [`SystemRun`] (hashed,
//!   telemetry included), checked against the telemetry-transparency
//!   contract (a telemetry-off run reports the same numbers) and the
//!   derived-entry contract (a run over an oracle warmed under the input's
//!   `lanes = 1` sibling key, which derives the multi-lane entries it can,
//!   equals the cold run; not hashed, so the corpus fingerprints stay
//!   put); under a fault spec, the resilient run must keep the clean
//!   run's functional results.
//! - **invariants** — cross-cutting telemetry laws: per-unit cycle
//!   conservation, `arbiter5/grants == arbiter32/grants == ddr/beats`,
//!   and `resilience/*` counters mirroring the report.
//! - **serve** — the batched service vs the direct backend per response,
//!   thread-count invariance (1 vs 2 oracle threads), and the `serve/*`
//!   counter contract.
//! - **fleet** — routing conservation and per-request payload
//!   invariance at the input's node count, against the 1-node zero-hop
//!   fleet as the single-pool reference (only for inputs carrying a
//!   `fleet` line, so the pre-fleet corpus keeps its fingerprints).
//!
//! Every stage also feeds a deterministic FNV-1a fingerprint; the fuzz
//! loop uses it as the novelty signal for corpus growth.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel;
use ir_fpga::hdc::{run_pair, run_read_sweep, HdcConfig, PairRun};
use ir_fpga::{
    AcceleratedSystem, FaultPlan, FpgaParams, FunctionalOracle, KernelKind, ResiliencePolicy,
    SystemRun,
};
use ir_serve::{
    FaultInjection, FleetConfig, FleetReport, FleetService, RealignService, Request, ServeConfig,
    ServiceReport,
};
use ir_telemetry::PerfCounters;

use crate::input::{FuzzInput, ServeSpec};
use crate::Fnv;

/// One observed divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Pipeline stage that diverged (`kernel`, `engine`, `invariant`,
    /// `serve`, `fleet`).
    pub stage: &'static str,
    /// Deduplication key: stage plus the specific contract that broke,
    /// free of case-specific values so re-discoveries collapse.
    pub signature: String,
    /// Human-readable specifics (indices, values) for the report.
    pub detail: String,
}

/// The result of one differential execution.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a digest of everything the run produced — the novelty signal.
    pub fingerprint: u64,
    /// Divergences, in discovery order.
    pub mismatches: Vec<Mismatch>,
}

impl Outcome {
    /// Whether every backend pair agreed and every invariant held.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

fn panic_payload(err: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into a `panic/<stage>` mismatch.
fn guarded<T>(
    stage: &'static str,
    out: &mut Vec<Mismatch>,
    f: impl FnOnce(&mut Vec<Mismatch>) -> T,
) -> Option<T> {
    let mut local = Vec::new();
    match catch_unwind(AssertUnwindSafe(|| f(&mut local))) {
        Ok(v) => {
            out.append(&mut local);
            Some(v)
        }
        Err(err) => {
            out.append(&mut local);
            out.push(Mismatch {
                stage,
                signature: format!("panic/{stage}"),
                detail: panic_payload(err),
            });
            None
        }
    }
}

fn hash_pair_run(h: &mut Fnv, r: &PairRun) {
    h.u64(r.min.whd);
    h.u64(r.min.offset as u64);
    h.u64(r.cycles);
    h.u64(r.comparisons);
    h.u64(r.offsets_pruned);
}

fn hash_system_run(h: &mut Fnv, run: &SystemRun) {
    h.u64(run.wall_time_s.to_bits());
    h.u64(run.dma_busy_s.to_bits());
    h.u64(run.command_s.to_bits());
    h.u64(run.compute_cycles);
    h.u64(run.comparisons);
    for r in &run.results {
        h.u64(r.best as u64);
        h.u64(r.comparisons);
        h.u64(r.realigned_count() as u64);
    }
    if let Some(t) = &run.telemetry {
        for (k, v) in t.counters.counters() {
            h.str(k);
            h.u64(v);
        }
    }
}

fn hash_report(h: &mut Fnv, report: &ServiceReport) {
    h.u64(report.completed());
    h.u64(report.rejections.len() as u64);
    h.u64(report.batches);
    h.u64(report.makespan_s.to_bits());
    for r in &report.responses {
        h.u64(r.id);
        h.u64(r.completion_s.to_bits());
        h.u64(r.best_consensus as u64);
        h.u64(r.realigned as u64);
    }
}

/// Stage 1: the layout production runs — one [`CandidateBlock`] per
/// target, one [`run_read_sweep`] per read on the dispatched kernel —
/// against the scalar reference [`run_pair`] element by element, plus
/// each explicit-SIMD kernel's sweep vs the portable SWAR kernel's over
/// the same block.
fn kernel_stage(input: &FuzzInput, h: &mut Fnv, out: &mut Vec<Mismatch>) {
    let simd_kinds: Vec<KernelKind> = KernelKind::available()
        .into_iter()
        .filter(|k| !matches!(k, KernelKind::Scalar | KernelKind::Swar))
        .collect();
    let cfg = HdcConfig {
        lanes: input.params.lanes,
        pruning: input.params.pruning,
        pair_overhead_cycles: input.params.pair_overhead_cycles,
        prune_latency_blocks: input.prune_latency_blocks,
    };
    for (ti, target) in input.targets.iter().enumerate() {
        let block = CandidateBlock::from_target(target);
        let shortest = (0..block.num_candidates()).map(|i| block.len(i)).min();
        // One sweep per read over every candidate; a read longer than
        // some candidate has no sweep (its fitting pairs still feed the
        // fingerprint below).
        let mut sweeps: Vec<Option<Vec<PairRun>>> = Vec::with_capacity(target.num_reads());
        for (ri, read) in target.reads().iter().enumerate() {
            if shortest.is_some_and(|len| read.len() > len) {
                sweeps.push(None);
                continue;
            }
            let sweep_read = SweepRead::new(read.bases().bases(), read.quals());
            let sweep = |kind| run_read_sweep(&block, &sweep_read, kind, cfg);
            let Some(fast) = guarded("kernel", out, |_| sweep(kernel::active())) else {
                return; // a panicking kernel would panic on every read
            };
            // SIMD-vs-SWAR backend pairs: extra checks only — the
            // fingerprint below still hashes the scalar result alone.
            if !simd_kinds.is_empty() {
                if let Some(swar) = guarded("kernel", out, |_| sweep(KernelKind::Swar)) {
                    for &kind in &simd_kinds {
                        let Some(simd) = guarded("kernel", out, |_| sweep(kind)) else {
                            continue;
                        };
                        for (ci, (simd, swar)) in simd.iter().zip(&swar).enumerate() {
                            if simd != swar {
                                out.push(Mismatch {
                                    stage: "kernel",
                                    signature: format!("kernel/simd-vs-swar/{kind}"),
                                    detail: format!(
                                        "target {ti} consensus {ci} read {ri}: \
                                         {kind} {simd:?} vs swar {swar:?}"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            sweeps.push(Some(fast));
        }
        for (ci, cons) in target.consensuses().iter().enumerate() {
            for (ri, read) in target.reads().iter().enumerate() {
                if read.len() > cons.len() {
                    continue; // no alignment offset exists for this pair
                }
                let Some(slow) = guarded("kernel", out, |_| {
                    run_pair(cons, read.bases(), read.quals(), cfg)
                }) else {
                    return; // a panicking kernel would panic on every pair
                };
                if let Some(fast) = sweeps[ri].as_ref().map(|sweep| sweep[ci]) {
                    if slow != fast {
                        let field = if slow.min != fast.min {
                            "min"
                        } else if slow.cycles != fast.cycles {
                            "cycles"
                        } else if slow.comparisons != fast.comparisons {
                            "comparisons"
                        } else {
                            "offsets_pruned"
                        };
                        out.push(Mismatch {
                            stage: "kernel",
                            signature: format!("kernel/sweep-vs-scalar/{field}"),
                            detail: format!(
                                "target {ti} consensus {ci} read {ri}: \
                                 scalar {slow:?} vs sweep {fast:?}"
                            ),
                        });
                    }
                }
                hash_pair_run(h, &slow);
            }
        }
    }
}

/// Compares two [`SystemRun`]s bitwise, pushing one mismatch per
/// diverging field.
fn diff_runs(a: &SystemRun, b: &SystemRun, contract: &str, out: &mut Vec<Mismatch>) {
    let mut push = |field: &str, detail: String| {
        out.push(Mismatch {
            stage: "engine",
            signature: format!("engine/{contract}/{field}"),
            detail,
        });
    };
    if a.wall_time_s.to_bits() != b.wall_time_s.to_bits() {
        push(
            "wall_time_s",
            format!("{} vs {}", a.wall_time_s, b.wall_time_s),
        );
    }
    if a.dma_busy_s.to_bits() != b.dma_busy_s.to_bits() {
        push(
            "dma_busy_s",
            format!("{} vs {}", a.dma_busy_s, b.dma_busy_s),
        );
    }
    if a.command_s.to_bits() != b.command_s.to_bits() {
        push("command_s", format!("{} vs {}", a.command_s, b.command_s));
    }
    if a.compute_cycles != b.compute_cycles {
        push(
            "compute_cycles",
            format!("{} vs {}", a.compute_cycles, b.compute_cycles),
        );
    }
    if a.comparisons != b.comparisons {
        push(
            "comparisons",
            format!("{} vs {}", a.comparisons, b.comparisons),
        );
    }
    if a.unit_busy_s.len() != b.unit_busy_s.len()
        || a.unit_busy_s
            .iter()
            .zip(&b.unit_busy_s)
            .any(|(x, y)| x.to_bits() != y.to_bits())
    {
        push(
            "unit_busy_s",
            format!("{:?} vs {:?}", a.unit_busy_s, b.unit_busy_s),
        );
    }
    if a.results.len() != b.results.len() {
        push(
            "results_len",
            format!("{} vs {}", a.results.len(), b.results.len()),
        );
    } else {
        for (i, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
            if x.best != y.best || x.outcomes != y.outcomes || x.cycles != y.cycles {
                push("results", format!("target {i}: {x:?} vs {y:?}"));
                break;
            }
        }
    }
    if a.timeline != b.timeline {
        push(
            "timeline",
            format!("{} vs {} events", a.timeline.len(), b.timeline.len()),
        );
    }
    if a.resilience != b.resilience {
        push(
            "resilience",
            format!("{:?} vs {:?}", a.resilience, b.resilience),
        );
    }
    match (&a.telemetry, &b.telemetry) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            if !x.bitwise_eq(y) {
                push("telemetry", "snapshots differ bitwise".to_string());
            }
        }
        _ => push("telemetry_presence", "one side missing".to_string()),
    }
}

/// Telemetry laws that hold for any run: cycle conservation per unit and
/// the arbiter/DDR grant identity.
fn telemetry_invariants(run: &SystemRun, num_units: usize, out: &mut Vec<Mismatch>) {
    let Some(tele) = &run.telemetry else { return };
    for u in 0..num_units {
        let busy = tele.counter(&format!("unit/{u:02}/busy_cycles"));
        let stall = tele.counter(&format!("unit/{u:02}/stall_cycles"));
        let quarantined = tele.counter(&format!("unit/{u:02}/quarantined_cycles"));
        let idle = tele.counter(&format!("unit/{u:02}/idle_cycles"));
        let total = tele.counter(&format!("unit/{u:02}/total_cycles"));
        if busy + stall + quarantined + idle != total {
            out.push(Mismatch {
                stage: "invariant",
                signature: "invariant/unit-cycle-conservation".to_string(),
                detail: format!(
                    "unit {u}: busy {busy} + stall {stall} + quarantined {quarantined} \
                     + idle {idle} != total {total}"
                ),
            });
        }
    }
    let grants5 = tele.counter("arbiter5/grants");
    let grants32 = tele.counter("arbiter32/grants");
    let beats = tele.counter("ddr/beats");
    if grants32 != beats || grants5 != beats {
        out.push(Mismatch {
            stage: "invariant",
            signature: "invariant/arbiter-grants-vs-ddr-beats".to_string(),
            detail: format!("arbiter5 {grants5}, arbiter32 {grants32}, ddr beats {beats}"),
        });
    }
    if let Some(report) = &run.resilience {
        let mut mirror = PerfCounters::default();
        report.record_into(&mut mirror);
        for (key, want) in mirror.counters() {
            let got = tele.counter(key);
            if got != want {
                out.push(Mismatch {
                    stage: "invariant",
                    signature: "invariant/resilience-counter-mirror".to_string(),
                    detail: format!("{key}: telemetry {got} vs report {want}"),
                });
            }
        }
    }
}

fn system(input: &FuzzInput, telemetry: bool) -> Result<AcceleratedSystem, ir_fpga::FpgaError> {
    AcceleratedSystem::new(input.params.params(), input.scheduling)
        .map(|s| s.with_telemetry(telemetry))
}

/// Stage 2 + 3: the engine run, telemetry transparency, the derived-entry
/// contract, the resilient path and telemetry invariants.
fn engine_stage(input: &FuzzInput, h: &mut Fnv, out: &mut Vec<Mismatch>) {
    let num_units = input.params.num_units;
    let engine = match system(input, true) {
        Ok(s) => s,
        Err(e) => {
            // Construction rejections are a legitimate outcome for
            // boundary parameters.
            h.str(&format!("construct:{e:?}"));
            return;
        }
    };

    let run_a = guarded("engine", out, |_| engine.run(&input.targets));
    if let Some(run_a) = &run_a {
        telemetry_invariants(run_a, num_units, out);
        hash_system_run(h, run_a);
    }

    // Telemetry transparency: a telemetry-off run reports the same
    // numbers (minus the snapshot and the trace-derived timeline).
    if let Some(run_a) = &run_a {
        let plain = guarded("engine", out, |_| {
            system(input, false)
                .expect("already constructed once")
                .run(&input.targets)
        });
        if let Some(plain) = plain {
            let mut masked = run_a.clone();
            masked.telemetry = None;
            masked.timeline = plain.timeline.clone();
            diff_runs(&masked, &plain, "telemetry-transparency", out);
        }
    }

    // Derived entries: warmed under the `lanes = 1` sibling key, the
    // oracle derives every multi-lane entry whose reads allow it instead
    // of sweeping; the run over it must be the cold run, bit for bit.
    if let Some(run_a) = &run_a {
        let warm = guarded("engine", out, |_| {
            let params = input.params.params();
            let mut oracle = FunctionalOracle::new();
            oracle.precompute(&input.targets, &FpgaParams { lanes: 1, ..params }, 1);
            engine.run_with_oracle(&input.targets, &mut oracle)
        });
        if let Some(warm) = warm {
            diff_runs(&warm, run_a, "derived-vs-cold", out);
        }
    }

    if let Some(fault) = &input.fault {
        let policy = ResiliencePolicy::default();
        let resilient = || -> Result<SystemRun, String> {
            let mut plan =
                FaultPlan::try_seeded(fault.seed, fault.rates).map_err(|e| e.to_string())?;
            Ok(engine.run_resilient(&input.targets, &mut plan, &policy))
        };
        match guarded("engine", out, |_| resilient()) {
            Some(Ok(fa)) => {
                telemetry_invariants(&fa, num_units, out);
                let report = fa.resilience.as_ref().expect("resilient runs report");
                if let Some(identity) = report.broken_identity() {
                    out.push(Mismatch {
                        stage: "engine",
                        signature: "engine/fault-report-identity".to_string(),
                        detail: format!("{identity} does not hold (report: {report:?})"),
                    });
                }
                // The clean run's functional results must survive faults.
                if let Some(clean) = &run_a {
                    let diverged = clean
                        .results
                        .iter()
                        .zip(&fa.results)
                        .position(|(c, f)| c.best != f.best || c.outcomes != f.outcomes);
                    if let Some(i) = diverged {
                        out.push(Mismatch {
                            stage: "engine",
                            signature: "engine/fault-functional-divergence".to_string(),
                            detail: format!(
                                "target {i}: faulty run changed the functional result \
                                 (report: {report:?})"
                            ),
                        });
                    }
                }
                hash_system_run(h, &fa);
            }
            Some(Err(e)) => {
                out.push(Mismatch {
                    stage: "engine",
                    signature: "engine/fault-plan-rejected".to_string(),
                    detail: e,
                });
            }
            None => {}
        }
    }
}

fn serve_config(input: &FuzzInput, spec: &ServeSpec, threads: usize) -> ServeConfig {
    ServeConfig {
        shards: spec.shards,
        admission_watermark: spec.admission_watermark,
        max_batch: spec.max_batch,
        flush_deadline_s: spec.flush_deadline_ns as f64 * 1e-9,
        slo_deadline_s: ServeConfig::default().slo_deadline_s,
        params: input.params.params(),
        scheduling: input.scheduling,
        policy: ResiliencePolicy::default(),
        faults: input.fault.map(|f| FaultInjection {
            seed: f.seed,
            rates: f.rates,
        }),
        threads,
        pool: None,
        tenants: None,
    }
}

fn requests(input: &FuzzInput, spec: &ServeSpec) -> Vec<Request> {
    let family = input.family.unwrap_or_default();
    input
        .targets
        .iter()
        .zip(&spec.arrival_ns)
        .enumerate()
        .map(|(i, (t, &ns))| {
            Request::new(i as u64, ns as f64 * 1e-9, t.clone()).with_family(family)
        })
        .collect()
}

fn diff_reports(a: &ServiceReport, b: &ServiceReport, contract: &str, out: &mut Vec<Mismatch>) {
    let mut push = |field: &str, detail: String| {
        out.push(Mismatch {
            stage: "serve",
            signature: format!("serve/{contract}/{field}"),
            detail,
        });
    };
    if a.makespan_s.to_bits() != b.makespan_s.to_bits() {
        push(
            "makespan_s",
            format!("{} vs {}", a.makespan_s, b.makespan_s),
        );
    }
    if a.batches != b.batches {
        push("batches", format!("{} vs {}", a.batches, b.batches));
    }
    if a.rejections != b.rejections {
        push(
            "rejections",
            format!("{} vs {}", a.rejections.len(), b.rejections.len()),
        );
    }
    if a.responses.len() != b.responses.len() {
        push(
            "responses_len",
            format!("{} vs {}", a.responses.len(), b.responses.len()),
        );
    } else if let Some((x, y)) = a.responses.iter().zip(&b.responses).find(|(x, y)| {
        x.id != y.id
            || x.completion_s.to_bits() != y.completion_s.to_bits()
            || x.dispatch_s.to_bits() != y.dispatch_s.to_bits()
            || x.shard != y.shard
            || x.batch != y.batch
            || x.best_consensus != y.best_consensus
            || x.realigned != y.realigned
    }) {
        push("responses", format!("{x:?} vs {y:?}"));
    }
    if a.resilience != b.resilience {
        push(
            "resilience",
            format!("{:?} vs {:?}", a.resilience, b.resilience),
        );
    }
    if a.counters != b.counters {
        push("counters", "registries differ".to_string());
    }
}

/// Serve-layer counter contract: the `serve/*` registry agrees with the
/// report's own tallies, and `resilience/*` mirrors the aggregate report.
fn serve_invariants(report: &ServiceReport, faults_on: bool, out: &mut Vec<Mismatch>) {
    let c = &report.counters;
    let checks = [
        ("serve/completed", report.completed()),
        ("serve/rejected", report.rejections.len() as u64),
        ("serve/batches", report.batches),
    ];
    for (key, want) in checks {
        let got = c.counter(key);
        if got != want {
            out.push(Mismatch {
                stage: "serve",
                signature: "serve/counter-contract".to_string(),
                detail: format!("{key}: counter {got} vs report {want}"),
            });
        }
    }
    if faults_on {
        let mut mirror = PerfCounters::default();
        report.resilience.record_into(&mut mirror);
        for (key, want) in mirror.counters() {
            let got = c.counter(key);
            if got != want {
                out.push(Mismatch {
                    stage: "serve",
                    signature: "serve/resilience-counter-mirror".to_string(),
                    detail: format!("{key}: counter {got} vs report {want}"),
                });
            }
        }
    }
}

/// Stage 4: the batched service against the direct backend, plus thread
/// invariance.
fn serve_stage(input: &FuzzInput, h: &mut Fnv, out: &mut Vec<Mismatch>) {
    let Some(spec) = &input.serve else { return };
    let run = |threads: usize| -> Result<ServiceReport, ir_serve::ServeError> {
        let mut service = RealignService::new(serve_config(input, spec, threads))?;
        service.run(requests(input, spec))
    };
    let one = guarded("serve", out, |_| run(1));
    let two = guarded("serve", out, |_| run(2));
    let (Some(one), Some(two)) = (one, two) else {
        return;
    };
    let (one, two) = match (one, two) {
        (Ok(one), Ok(two)) => (one, two),
        (Err(e), _) | (_, Err(e)) => {
            out.push(Mismatch {
                stage: "serve",
                signature: format!("serve/typed-error/{}", error_tag(&e)),
                detail: e.to_string(),
            });
            return;
        }
    };
    diff_reports(&one, &two, "threads-1-vs-2", out);
    serve_invariants(&one, input.fault.is_some(), out);

    // Functional parity: every completed response equals the direct
    // backend's answer for that target.
    if let Ok(direct_sys) = AcceleratedSystem::new(input.params.params(), input.scheduling) {
        if let Some(direct) = guarded("serve", out, |_| direct_sys.run(&input.targets)) {
            for r in one.responses_by_id() {
                let want = &direct.results[r.id as usize];
                if r.best_consensus != want.best_consensus()
                    || r.realigned != want.realigned_count()
                {
                    out.push(Mismatch {
                        stage: "serve",
                        signature: "serve/direct-functional-divergence".to_string(),
                        detail: format!(
                            "request {}: serve ({}, {}) vs direct ({}, {})",
                            r.id,
                            r.best_consensus,
                            r.realigned,
                            want.best_consensus(),
                            want.realigned_count()
                        ),
                    });
                    break;
                }
            }
        }
    }
    hash_report(h, &one);
}

/// Stage 5: the routed fleet against the single pool. The 1-node
/// zero-hop fleet — what [`RealignService`] runs — is the single-pool
/// reference; at the spec's node count the fleet must conserve the
/// request stream (served ∪ shed partitions the offered ids) and keep
/// every response's functional payload equal to the single pool's answer
/// for that id. Fleet data is only hashed for inputs carrying a `fleet`
/// line, so every pre-fleet corpus case keeps its fingerprint.
fn fleet_stage(input: &FuzzInput, h: &mut Fnv, out: &mut Vec<Mismatch>) {
    let Some(fspec) = &input.fleet else { return };
    let Some(spec) = &input.serve else { return };
    let run_fleet = |nodes: usize, hop_s: f64| -> Result<FleetReport, ir_serve::ServeError> {
        let mut fleet = FleetService::new(FleetConfig {
            nodes,
            node: serve_config(input, spec, 1),
            hop_latency_s: hop_s,
            vnodes: fspec.vnodes,
            autoscale: None,
            spot: None,
        })?;
        fleet.run(requests(input, spec))
    };
    let one_node = match guarded("fleet", out, |_| run_fleet(1, 0.0)) {
        Some(Ok(r)) => r,
        Some(Err(e)) => {
            out.push(Mismatch {
                stage: "fleet",
                signature: format!("fleet/typed-error/{}", error_tag(&e)),
                detail: e.to_string(),
            });
            return;
        }
        None => return,
    };
    let single = &one_node.node_reports[0];

    let offered = requests(input, spec).len() as u64;
    let routed = if fspec.nodes > 1 {
        match guarded("fleet", out, |_| {
            run_fleet(fspec.nodes, fspec.hop_ns as f64 * 1e-9)
        }) {
            Some(Ok(r)) => Some(r),
            Some(Err(e)) => {
                out.push(Mismatch {
                    stage: "fleet",
                    signature: format!("fleet/typed-error/{}", error_tag(&e)),
                    detail: e.to_string(),
                });
                None
            }
            None => None,
        }
    } else {
        None
    };
    if let Some(routed) = &routed {
        // Conservation: served ∪ shed partitions the offered id range.
        let mut ids: Vec<u64> = routed
            .responses_by_id()
            .iter()
            .map(|r| r.id)
            .chain(
                routed
                    .node_reports
                    .iter()
                    .flat_map(|r| r.rejections.iter().map(|x| x.id)),
            )
            .collect();
        ids.sort_unstable();
        let want: Vec<u64> = (0..offered).collect();
        if ids != want {
            out.push(Mismatch {
                stage: "fleet",
                signature: "fleet/routing-conservation".to_string(),
                detail: format!(
                    "{} nodes: served+shed ids {:?} != offered 0..{}",
                    fspec.nodes, ids, offered
                ),
            });
        }
        // Functional routing-invariance: whichever node served a
        // request, the payload matches the single pool's answer.
        for r in routed.responses_by_id() {
            let Some(golden) = single.responses.iter().find(|s| s.id == r.id) else {
                continue; // single pool shed it (admission is topology-local)
            };
            if r.best_consensus != golden.best_consensus || r.realigned != golden.realigned {
                out.push(Mismatch {
                    stage: "fleet",
                    signature: "fleet/routing-functional-divergence".to_string(),
                    detail: format!(
                        "request {}: fleet ({}, {}) vs single ({}, {})",
                        r.id,
                        r.best_consensus,
                        r.realigned,
                        golden.best_consensus,
                        golden.realigned
                    ),
                });
                break;
            }
        }
        // With nothing shed on either side, the response multiset is
        // independent of the node count.
        if single.rejections.is_empty() && routed.rejected() == 0 {
            let fleet_ids: Vec<u64> = routed.responses_by_id().iter().map(|r| r.id).collect();
            let single_ids: Vec<u64> = single.responses_by_id().iter().map(|r| r.id).collect();
            if fleet_ids != single_ids {
                out.push(Mismatch {
                    stage: "fleet",
                    signature: "fleet/routing-multiset-divergence".to_string(),
                    detail: format!(
                        "{} nodes served {:?} but the single pool served {:?}",
                        fspec.nodes, fleet_ids, single_ids
                    ),
                });
            }
        }
    }

    hash_report(h, single);
    if let Some(routed) = &routed {
        h.u64(routed.completed());
        h.u64(routed.rejected());
        h.u64(routed.batches());
        h.u64(routed.makespan_s.to_bits());
        for (k, v) in routed.counters.counters() {
            h.str(k);
            h.u64(v);
        }
    }
}

fn error_tag(e: &ir_serve::ServeError) -> &'static str {
    use ir_serve::ServeError::*;
    match e {
        InvalidConfig { .. } => "invalid-config",
        Backend(_) => "backend",
        UnsortedArrivals { .. } => "unsorted-arrivals",
        DuplicateArrival { .. } => "duplicate-arrival",
        ShardNotInFlight { .. } => "shard-not-in-flight",
        EmptyBatch { .. } => "empty-batch",
        NoResponses => "no-responses",
        PercentileOutOfRange { .. } => "percentile-out-of-range",
        UndrainedQueue { .. } => "undrained-queue",
        UnknownTenant { .. } => "unknown-tenant",
        NoActiveNodes => "no-active-nodes",
        _ => "other",
    }
}

/// Executes one case through every stage.
pub fn execute(input: &FuzzInput) -> Outcome {
    let mut h = Fnv::new();
    let mut mismatches = Vec::new();
    h.str(&input.encode());
    kernel_stage(input, &mut h, &mut mismatches);
    engine_stage(input, &mut h, &mut mismatches);
    serve_stage(input, &mut h, &mut mismatches);
    fleet_stage(input, &mut h, &mut mismatches);
    Outcome {
        fingerprint: h.finish(),
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_cases_execute_clean() {
        let mut rng = StdRng::seed_from_u64(21);
        for i in 0..6 {
            let input = generate(&mut rng);
            let outcome = execute(&input);
            assert!(
                outcome.is_clean(),
                "case {i} diverged: {:?}\n{}",
                outcome.mismatches,
                input.encode()
            );
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(4);
        let input = generate(&mut rng);
        let a = execute(&input);
        let b = execute(&input);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.mismatches, b.mismatches);
    }

    #[test]
    fn fingerprints_separate_different_cases() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = execute(&generate(&mut rng));
        let b = execute(&generate(&mut rng));
        assert_ne!(a.fingerprint, b.fingerprint);
    }
}
