//! Deterministic end-to-end test of the batched realignment service.
//!
//! Runs a seeded workload through [`ir_system::serve::RealignService`]
//! with fault injection ON and pins the three contracts the serving
//! layer makes:
//!
//! 1. **Functional parity** — every response carries exactly the result
//!    the direct [`AcceleratedSystem`] path produces for the same target
//!    (the resilience layer recovers injected faults to the golden
//!    answer; batching and sharding are invisible to correctness).
//! 2. **Determinism** — two same-config same-seed runs produce equal
//!    reports, and the oracle pre-warm thread count does not change a
//!    single response.
//! 3. **Observability** — the `resilience/*` counters in the report
//!    mirror [`ResilienceReport::record_into`] of the aggregated report,
//!    and the `serve/*` counters agree with the report's own tallies.
//! 4. **Golden digests** — each served report hashes to a committed
//!    digest (`common::report_digest`): responses, rejections, makespan
//!    bits, counters, gauges, the JSON export and the Chrome trace.
//!    Together with the fault-off digests in `tests/shape_routing.rs`
//!    they freeze the service's full verdict bit for bit.
//! 5. **Purity** — running one service twice on the same stream gives
//!    identical reports: no state (fault RNGs included) carries over.
//! 6. **Construction** — an FPGA configuration that cannot be built is a
//!    [`ServeError::Backend`] from `new()`, for the service and the
//!    fleet alike, not a late failure in `run()`.
//!
//! Case counts here are fixed (not proptest): the workload is one seeded
//! stream, sized to span multiple batches on every shard. The baseline
//! report and one independent repeat are computed once and shared across
//! tests (cycle-level runs are the dominant cost under the dev profile).

mod common;

use std::sync::OnceLock;

use common::{assert_golden, report_digest};

use ir_system::fpga::{AcceleratedSystem, FaultRates, FpgaError, FpgaParams, Scheduling};
use ir_system::serve::{
    FaultInjection, FleetConfig, FleetService, RealignService, Request, ServeConfig, ServeError,
    ServiceReport,
};
use ir_system::telemetry::PerfCounters;
use ir_system::workloads::{ArrivalProcess, WorkloadConfig, WorkloadGenerator};

const WORKLOAD_SEED: u64 = 77;
const ARRIVAL_SEED: u64 = 13;
const FAULT_SEED: u64 = 5;
const REQUESTS: usize = 24;

fn workload() -> Vec<ir_system::genome::RealignmentTarget> {
    let generator = WorkloadGenerator::new(WorkloadConfig {
        seed: WORKLOAD_SEED,
        scale: 1e-4,
        ..WorkloadConfig::default()
    });
    generator.targets(REQUESTS, WORKLOAD_SEED)
}

fn faulty_config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        // Well above the default 1e-3: a short stream must reliably
        // exercise the retry/fallback machinery, not just ride clean.
        faults: Some(FaultInjection {
            seed: FAULT_SEED,
            rates: FaultRates::uniform(0.05),
        }),
        ..ServeConfig::default()
    }
}

fn requests(targets: &[ir_system::genome::RealignmentTarget], rate_rps: f64) -> Vec<Request> {
    let times = ArrivalProcess::poisson(ARRIVAL_SEED, rate_rps).times(targets.len());
    targets
        .iter()
        .zip(times)
        .enumerate()
        .map(|(i, (t, at))| Request::new(i as u64, at, t.clone()))
        .collect()
}

fn run_service(config: ServeConfig, rate_rps: f64) -> ServiceReport {
    let targets = workload();
    let mut service = RealignService::new(config).expect("valid config");
    service
        .run(requests(&targets, rate_rps))
        .expect("service run succeeds")
}

/// Golden digest of the faulty baseline (identical at 1 and 4 oracle
/// threads).
const GOLDEN_FAULTY: u64 = 0xb037_6e8e_e82f_64ee;
/// Golden digest of the overloaded 4-deep-watermark run.
const GOLDEN_OVERLOAD: u64 = 0xe6d6_99a3_fcdc_5d16;

/// The canonical faulty single-thread run, shared across tests.
fn baseline() -> &'static ServiceReport {
    static BASELINE: OnceLock<ServiceReport> = OnceLock::new();
    BASELINE.get_or_init(|| run_service(faulty_config(1), 20_000.0))
}

/// Two back-to-back runs of one fresh service on the baseline stream:
/// the first is the independent same-seed repeat of [`baseline`], the
/// second checks that a run leaves nothing behind for the next.
fn repeated() -> &'static (ServiceReport, ServiceReport) {
    static REPEATED: OnceLock<(ServiceReport, ServiceReport)> = OnceLock::new();
    REPEATED.get_or_init(|| {
        let targets = workload();
        let mut service = RealignService::new(faulty_config(1)).expect("valid config");
        let mut run = || {
            service
                .run(requests(&targets, 20_000.0))
                .expect("service run succeeds")
        };
        let first = run();
        (first, run())
    })
}

/// Contract 4: the served reports hash to their committed digests.
#[test]
fn golden_digests_pin_the_served_reports() {
    assert_golden(baseline(), GOLDEN_FAULTY, "faulty baseline");
}

/// Contract 5: a second run on the same service repeats the first
/// exactly — fault streams restart with the run, they do not carry over.
#[test]
fn repeated_runs_on_one_service_are_identical() {
    let (first, second) = repeated();
    assert_eq!(first.responses, second.responses);
    assert_eq!(report_digest(first), report_digest(second));
}

/// Contract 1: with fault injection on, every served response matches the
/// direct accelerator path bitwise (best consensus and realigned count).
#[test]
fn faulty_service_matches_direct_system_path() {
    let targets = workload();
    let config = faulty_config(1);
    let direct = AcceleratedSystem::new(config.params, config.scheduling)
        .expect("valid params")
        .run(&targets);

    let report = baseline();
    assert_eq!(
        report.completed() as usize,
        targets.len(),
        "watermark must admit the whole stream at this rate"
    );
    assert!(
        report.resilience.faults.total() > 0,
        "5% uniform fault rates over {REQUESTS} targets must inject something"
    );
    for response in report.responses_by_id() {
        let golden = &direct.results[response.id as usize];
        assert_eq!(
            response.best_consensus,
            golden.best_consensus(),
            "request {} consensus diverged from the direct path",
            response.id
        );
        assert_eq!(
            response.realigned,
            golden.realigned_count(),
            "request {} realigned-count diverged from the direct path",
            response.id
        );
    }
}

/// Contract 2a: same config + same seed ⇒ byte-equal responses,
/// rejections and counters.
#[test]
fn same_seed_runs_are_identical() {
    let a = baseline();
    let b = &repeated().0;
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.rejections, b.rejections);
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    assert_eq!(a.batches, b.batches);
    let counters_a: Vec<_> = a.counters.counters().collect();
    let counters_b: Vec<_> = b.counters.counters().collect();
    assert_eq!(counters_a, counters_b);
}

/// Contract 2b: the oracle pre-warm thread count is invisible — the only
/// threading in the serving path merges in deterministic index order.
#[test]
fn thread_count_does_not_change_responses() {
    let single = baseline();
    let multi = run_service(faulty_config(4), 20_000.0);
    assert_eq!(single.responses, multi.responses);
    assert_eq!(single.rejections, multi.rejections);
    assert_eq!(single.batches, multi.batches);
    assert_golden(&multi, GOLDEN_FAULTY, "faulty, 4 oracle threads");
}

/// Contract 3: the report's `resilience/*` counters are exactly what
/// `record_into` of the aggregated report writes, and the `serve/*`
/// counters agree with the report tallies.
#[test]
fn counters_mirror_reports() {
    let report = baseline();

    let mut mirrored = PerfCounters::default();
    report.resilience.record_into(&mut mirrored);
    let expected: Vec<(String, u64)> = mirrored
        .counters_with_prefix("resilience/")
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    assert!(!expected.is_empty(), "record_into writes resilience keys");
    let actual: Vec<(String, u64)> = report
        .counters
        .counters_with_prefix("resilience/")
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    assert_eq!(
        actual, expected,
        "resilience counters must mirror the report"
    );

    assert_eq!(
        report.counters.counter("serve/completed"),
        report.completed()
    );
    assert_eq!(
        report.counters.counter("serve/rejected"),
        report.rejections.len() as u64
    );
    assert_eq!(report.counters.counter("serve/batches"), report.batches);
    assert_eq!(
        report.counters.counter("serve/accepted"),
        report.completed(),
        "every accepted request completes (no shutdown drops)"
    );
}

/// Request-level tracing: every response's span breakdown tiles its
/// end-to-end latency, the `serve/span_*_us` histograms cover every
/// completion, and the SLO counters partition the completed set.
#[test]
fn span_breakdown_tiles_latency_and_feeds_histograms() {
    let report = baseline();
    for r in &report.responses {
        assert!(
            r.arrival_s <= r.ready_s,
            "request {} ready before arrival",
            r.id
        );
        assert!(
            r.ready_s <= r.dispatch_s,
            "request {} dispatched before ready",
            r.id
        );
        assert!(
            r.dispatch_s < r.completion_s,
            "request {} empty execution",
            r.id
        );
        let spans = r.admission_wait_s() + r.batch_wait_s() + r.shard_wait_s() + r.service_s();
        assert!(
            (spans - r.latency_s()).abs() < 1e-12,
            "request {} spans do not tile its latency",
            r.id
        );
    }
    for key in [
        "serve/span_admission_us",
        "serve/span_batch_wait_us",
        "serve/span_shard_wait_us",
        "serve/span_exec_us",
        "serve/span_total_us",
    ] {
        let h = report.counters.histogram(key).unwrap_or_else(|| {
            panic!("missing histogram {key}");
        });
        assert_eq!(h.count, report.completed(), "{key} misses completions");
        assert!(h.percentile(99.0).is_some());
    }
    let met = report.counters.counter("serve/slo_met");
    let missed = report.counters.counter("serve/slo_missed");
    assert_eq!(
        met + missed,
        report.completed(),
        "SLO counters must partition"
    );
    let attainment = report.slo_attainment();
    assert!((0.0..=1.0).contains(&attainment));
    assert!(
        (attainment - met as f64 / report.completed() as f64).abs() < 1e-12,
        "slo_attainment disagrees with the counters"
    );
}

/// The per-shard Perfetto trace carries one compute span per dispatched
/// batch, on shard tracks, and serializes to valid Chrome trace JSON.
/// The structured JSON report export parses too, and both artifacts are
/// byte-identical across same-seed runs.
#[test]
fn trace_and_json_exports_are_valid_and_deterministic() {
    let report = baseline();
    assert_eq!(
        report.trace.events.len() as u64,
        report.batches,
        "one span per dispatched batch"
    );
    for e in &report.trace.events {
        assert!(
            matches!(e.track, ir_system::telemetry::Track::Shard(_)),
            "serve spans belong on shard tracks"
        );
    }
    let chrome = report.trace.to_chrome_json();
    ir_system::telemetry::json::validate_json(&chrome).expect("chrome trace parses");
    assert!(chrome.contains("\"shard 0\""));

    let json = report.to_json();
    let doc = ir_system::telemetry::json::parse_json(&json).expect("report JSON parses");
    for key in [
        "completed",
        "throughput_rps",
        "latency_p99_us",
        "slo_attainment",
        "counters",
        "histograms",
    ] {
        assert!(doc.get(key).is_some(), "report JSON misses {key}");
    }
    assert_eq!(
        doc.get("completed").and_then(|v| v.as_f64()),
        Some(report.completed() as f64)
    );

    let again = &repeated().0;
    assert_eq!(again.to_json(), json, "report JSON must be seed-stable");
    assert_eq!(
        again.trace.to_chrome_json(),
        chrome,
        "chrome trace must be seed-stable"
    );
}

/// Admission control: a tiny watermark at an overwhelming offered rate
/// rejects with a positive retry-after hint, and completed + rejected
/// still accounts for every offered request.
#[test]
fn overload_rejects_with_retry_after() {
    let config = ServeConfig {
        admission_watermark: 4,
        ..faulty_config(1)
    };
    let report = run_service(config, 5_000_000.0);
    assert_eq!(report.offered() as usize, REQUESTS);
    assert!(
        !report.rejections.is_empty(),
        "4-deep watermark at 5M req/s must shed load"
    );
    for rejection in &report.rejections {
        assert!(
            rejection.retry_after_s > 0.0,
            "rejection {} carries no backpressure hint",
            rejection.id
        );
    }
    // Shed load is observable in the counters too.
    assert_eq!(
        report.counters.counter("serve/rejected"),
        report.rejections.len() as u64
    );
    assert_golden(&report, GOLDEN_OVERLOAD, "overload");
}

/// Contract 6: 64 units do not fit the fabric, and both constructors say
/// so before any traffic is offered.
#[test]
fn impossible_backend_fails_at_construction() {
    let config = ServeConfig {
        params: FpgaParams {
            num_units: 64,
            ..FpgaParams::iracc()
        },
        ..ServeConfig::default()
    };
    let service = RealignService::new(config.clone());
    assert!(
        matches!(service, Err(ServeError::Backend(_))),
        "service: {service:?}"
    );
    let fleet = FleetService::new(FleetConfig {
        nodes: 3,
        node: config,
        ..FleetConfig::default()
    });
    assert!(
        matches!(fleet, Err(ServeError::Backend(_))),
        "fleet: {fleet:?}"
    );
}

/// Contract 6 for degenerate fabrics: no units or no HDC lanes is a
/// typed construction error for the system and the service, never a
/// panic in the first sweep.
#[test]
fn unitless_and_laneless_backends_fail_at_construction() {
    for params in [
        FpgaParams {
            num_units: 0,
            ..FpgaParams::iracc()
        },
        FpgaParams {
            lanes: 0,
            ..FpgaParams::iracc()
        },
    ] {
        let system = AcceleratedSystem::new(params, Scheduling::Asynchronous);
        assert!(
            matches!(system, Err(FpgaError::NotConfigured(_))),
            "system: {:?}",
            system.err()
        );
        let service = RealignService::new(ServeConfig {
            params,
            ..ServeConfig::default()
        });
        assert!(
            matches!(
                service,
                Err(ServeError::Backend(FpgaError::NotConfigured(_)))
            ),
            "service: {:?}",
            service.err()
        );
    }
}
