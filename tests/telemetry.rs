//! Telemetry integration tests: counter invariants on seeded runs and
//! the zero-overhead guarantee.
//!
//! The two structural invariants the telemetry layer promises:
//!
//! 1. **Cycle conservation** — for every unit,
//!    `busy + stall + quarantined + idle == total` cycles, where `total`
//!    is the run's wall time in unit clocks;
//! 2. **Arbiter/DDR consistency** — every beat the 32:1 arbiter grants is
//!    a beat the DDR channel serves (`arbiter32/grants == ddr/beats`),
//!    and the 5:1 grants equal them too (every beat first passes the
//!    intra-unit arbiter).
//!
//! Plus the contract that makes telemetry safe to leave on: an enabled
//! run reports exactly the same timing and functional results as a
//! disabled one.

mod common;

use common::snapshot_digest;
use ir_system::fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_system::genome::RealignmentTarget;
use ir_system::telemetry::json::validate_json;
use ir_system::workloads::{WorkloadConfig, WorkloadGenerator};

fn workload(count: usize) -> Vec<RealignmentTarget> {
    WorkloadGenerator::new(WorkloadConfig {
        scale: 1e-4,
        read_len: 62,
        min_consensus_len: 80,
        max_consensus_len: 510,
        ..WorkloadConfig::default()
    })
    .targets(count, 0x7E1E)
}

fn all_configs() -> Vec<(FpgaParams, Scheduling)> {
    vec![
        (FpgaParams::serial(), Scheduling::Synchronous),
        (FpgaParams::serial(), Scheduling::Asynchronous),
        (FpgaParams::iracc(), Scheduling::Asynchronous),
    ]
}

#[test]
fn per_unit_cycles_are_conserved() {
    let targets = workload(64);
    for (params, scheduling) in all_configs() {
        let system = AcceleratedSystem::new(params, scheduling)
            .expect("paper configs fit")
            .with_telemetry(true);
        let run = system.run(&targets);
        let tele = run.telemetry.as_ref().expect("telemetry enabled");
        for u in 0..params.num_units {
            let busy = tele.counter(&format!("unit/{u:02}/busy_cycles"));
            let stall = tele.counter(&format!("unit/{u:02}/stall_cycles"));
            let quarantined = tele.counter(&format!("unit/{u:02}/quarantined_cycles"));
            let idle = tele.counter(&format!("unit/{u:02}/idle_cycles"));
            let total = tele.counter(&format!("unit/{u:02}/total_cycles"));
            assert_eq!(
                busy + stall + quarantined + idle,
                total,
                "unit {u} cycle conservation under {scheduling:?}"
            );
            assert!(total > 0, "unit {u} saw a nonzero wall");
        }
        // The sum of per-unit target counts covers the whole workload.
        let dispatched: u64 = (0..params.num_units)
            .map(|u| tele.counter(&format!("unit/{u:02}/targets")))
            .sum();
        assert_eq!(dispatched, targets.len() as u64);
    }
}

#[test]
fn arbiter_grants_match_ddr_beats_served() {
    let targets = workload(48);
    for (params, scheduling) in all_configs() {
        let system = AcceleratedSystem::new(params, scheduling)
            .expect("paper configs fit")
            .with_telemetry(true);
        let run = system.run(&targets);
        let tele = run.telemetry.as_ref().expect("telemetry enabled");
        let grants5 = tele.counter("arbiter5/grants");
        let grants32 = tele.counter("arbiter32/grants");
        let beats = tele.counter("ddr/beats");
        assert!(beats > 0, "the workload moves data");
        assert_eq!(
            grants32, beats,
            "every 32:1 grant is a DDR beat served ({scheduling:?})"
        );
        assert_eq!(
            grants5, beats,
            "every beat first passes the intra-unit 5:1 arbiter"
        );
        assert!(
            tele.counter("ddr/row_hits") <= beats,
            "row hits are a subset of beats"
        );
    }
}

#[test]
fn telemetry_enabled_run_is_cycle_identical_to_disabled() {
    let targets = workload(48);
    for (params, scheduling) in all_configs() {
        let system = AcceleratedSystem::new(params, scheduling).expect("paper configs fit");
        let plain = system.run(&targets);
        let instrumented = system.clone().with_telemetry(true).run(&targets);
        assert!(plain.telemetry.is_none());
        assert!(instrumented.telemetry.is_some());
        assert_eq!(
            plain.wall_time_s.to_bits(),
            instrumented.wall_time_s.to_bits(),
            "wall time must be bit-identical under {scheduling:?}"
        );
        assert_eq!(plain.compute_cycles, instrumented.compute_cycles);
        assert_eq!(plain.comparisons, instrumented.comparisons);
        assert_eq!(plain.command_s.to_bits(), instrumented.command_s.to_bits());
        assert_eq!(
            plain.dma_busy_s.to_bits(),
            instrumented.dma_busy_s.to_bits()
        );
        for (a, b) in plain.unit_busy_s.iter().zip(&instrumented.unit_busy_s) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(plain.results, instrumented.results);
    }
}

#[test]
fn hdc_counters_match_run_totals() {
    let targets = workload(32);
    let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)
        .expect("iracc fits")
        .with_telemetry(true);
    let run = system.run(&targets);
    let tele = run.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(tele.counter("hdc/comparisons"), run.comparisons);
    let pruned: u64 = run.results.iter().map(|r| r.offsets_pruned).sum();
    assert_eq!(tele.counter("hdc/pruned_offsets"), pruned);
    assert_eq!(tele.counter("system/targets"), targets.len() as u64);
    assert_eq!(tele.counter("sched/dispatches"), targets.len() as u64);
}

#[test]
fn chrome_trace_is_valid_json_with_spans() {
    let targets = workload(16);
    let system = AcceleratedSystem::new(FpgaParams::serial(), Scheduling::Synchronous)
        .expect("serial fits")
        .with_telemetry(true);
    let run = system.run(&targets);
    let tele = run.telemetry.as_ref().expect("telemetry enabled");
    let json = tele.chrome_trace_json();
    validate_json(&json).expect("trace must be well-formed JSON");
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""), "complete events present");
    assert!(json.contains("\"ph\":\"M\""), "track metadata present");
    // One transfer and one compute span per target survive into the
    // derived timeline (the tracer itself holds more, e.g. stalls).
    assert_eq!(run.timeline.len(), 2 * targets.len());
}

#[test]
fn telemetry_run_still_produces_the_timeline() {
    // A telemetry-on run derives the Figure 7 timeline from the tracer;
    // it must keep its original shape.
    let targets = workload(12);
    let system = AcceleratedSystem::new(FpgaParams::serial(), Scheduling::Asynchronous)
        .expect("serial fits")
        .with_telemetry(true);
    let run = system.run(&targets);
    assert_eq!(run.timeline.len(), 2 * targets.len());
    assert!(run.telemetry.is_some(), "traced runs carry the snapshot");
}

#[test]
fn csv_report_round_trips_counters() {
    let targets = workload(12);
    let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)
        .expect("iracc fits")
        .with_telemetry(true);
    let run = system.run(&targets);
    let tele = run.telemetry.as_ref().expect("telemetry enabled");
    let csv = tele.to_csv();
    assert!(csv.starts_with("kind,key,value\n"));
    let line = format!("counter,ddr/beats,{}\n", tele.counter("ddr/beats"));
    assert!(csv.contains(&line), "csv carries the exact counter values");
    validate_json(&tele.to_json()).expect("json report must be well-formed");
}

#[test]
fn resilience_counters_mirror_the_report() {
    use ir_system::fpga::fault::{FaultPlan, FaultRates};
    use ir_system::fpga::ResiliencePolicy;

    let targets = workload(48);
    let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)
        .expect("iracc fits")
        .with_telemetry(true);
    let mut plan = FaultPlan::seeded(11, FaultRates::uniform(1e-3));
    let policy = ResiliencePolicy {
        watchdog_cycles: 1 << 20,
        ..ResiliencePolicy::default()
    };
    let run = system.run_resilient(&targets, &mut plan, &policy);
    let report = run.resilience.as_ref().expect("resilient run reports");
    let tele = run.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(tele.counter("resilience/retries"), report.retries);
    assert_eq!(tele.counter("resilience/fallbacks"), report.fallbacks);
    assert_eq!(
        tele.counter("resilience/quarantined_units"),
        report.quarantined_units.len() as u64
    );
    assert_eq!(tele.counter("resilience/lost_cycles"), report.lost_cycles);
    assert_eq!(
        tele.counter("resilience/injected_total"),
        report.faults.total()
    );
}

/// Golden digests of the full telemetry snapshot for every scheduling,
/// fault-free and under a seeded fault plan. They pin the telemetry
/// accumulator on its own, beside the whole-run digests of
/// `tests/event_parity.rs`. A digest may change only with a
/// modeled-output change that explains it.
#[test]
fn telemetry_snapshots_match_golden_digests() {
    use ir_system::fpga::fault::{FaultPlan, FaultRates};
    use ir_system::fpga::ResiliencePolicy;

    // (scheduling, fault-free digest, faulted digest)
    const GOLDEN: [(Scheduling, u64, u64); 4] = [
        (
            Scheduling::Synchronous,
            0xf19c_0c76_e289_e944,
            0x14b4_7965_d360_7c45,
        ),
        (
            Scheduling::SynchronousUnsorted,
            0x082c_5421_252e_d2a5,
            0x1b79_4f29_603f_2804,
        ),
        (
            Scheduling::SynchronousByWorstCase,
            0x6277_4b17_e36c_4530,
            0x99ee_2302_daef_4fca,
        ),
        (
            Scheduling::Asynchronous,
            0xe4f0_328e_bd56_94d9,
            0x3b5a_782a_6d6a_43bf,
        ),
    ];
    let targets = workload(48);
    let mut mismatches = Vec::new();
    let cases = GOLDEN
        .iter()
        .flat_map(|&(s, clean, faulted)| [(s, false, clean), (s, true, faulted)]);
    for (scheduling, faults, golden) in cases {
        let system = AcceleratedSystem::new(FpgaParams::iracc(), scheduling)
            .expect("iracc fits")
            .with_telemetry(true);
        let run = if faults {
            let mut plan = FaultPlan::seeded(
                0x7E1E,
                FaultRates {
                    unit_hang: 0.2,
                    ..FaultRates::uniform(0.05)
                },
            );
            let run = system.run_resilient(&targets, &mut plan, &ResiliencePolicy::default());
            let report = run.resilience.as_ref().expect("resilient run reports");
            assert!(
                !report.quarantined_units.is_empty(),
                "the plan drives a unit into quarantine"
            );
            run
        } else {
            system.run(&targets)
        };
        let got = snapshot_digest(run.telemetry.as_ref().expect("telemetry enabled"));
        if got != golden {
            mismatches.push(format!(
                "{scheduling:?}, faults {faults}: {got:#018x} != golden {golden:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// A single unit never shares the 32:1 arbiter, so the conflict counter
/// is never created, while every other per-dispatch key is.
#[test]
fn single_unit_run_has_no_arbiter32_conflicts() {
    let targets = workload(16);
    let params = FpgaParams {
        num_units: 1,
        ..FpgaParams::iracc()
    };
    let system = AcceleratedSystem::new(params, Scheduling::Asynchronous)
        .expect("one unit fits")
        .with_telemetry(true);
    let run = system.run(&targets);
    let tele = run.telemetry.as_ref().expect("telemetry enabled");
    let keys: Vec<&str> = tele.counters.counters().map(|(k, _)| k).collect();
    assert!(!keys.contains(&"arbiter32/conflict_grants"), "{keys:?}");
    assert!(keys.contains(&"arbiter32/grants"), "{keys:?}");
    assert_eq!(tele.gauge("arbiter32/active_units_hwm"), 1);
    assert_eq!(
        snapshot_digest(tele),
        0x8fd7_7f90_9ad7_3a7e,
        "single-unit digest"
    );
}
