//! Differential tests pinning the discrete-event engine to the legacy
//! cycle-stepping schedulers: for any workload, scheduling policy, unit
//! configuration, telemetry setting and seeded fault plan, the two
//! [`SimBackend`]s must produce **bitwise-identical** [`SystemRun`]s —
//! the same f64 bits for every accumulated second, the same cycle and
//! comparison counts, the same timeline, the same telemetry snapshot and
//! the same resilience report. The engine earns its wall-clock win only
//! if nothing else about the simulation changes.

use proptest::prelude::*;

use ir_system::fpga::driver::ResiliencePolicy;
use ir_system::fpga::fault::{FaultPlan, FaultRates};
use ir_system::fpga::{
    AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling, SimBackend, SystemRun,
};
use ir_system::genome::RealignmentTarget;
use ir_system::workloads::{WorkloadConfig, WorkloadGenerator};

const ALL_SCHEDULINGS: [Scheduling; 4] = [
    Scheduling::Synchronous,
    Scheduling::SynchronousUnsorted,
    Scheduling::SynchronousByWorstCase,
    Scheduling::Asynchronous,
];

fn workload(count: usize, seed: u64) -> Vec<RealignmentTarget> {
    WorkloadGenerator::new(WorkloadConfig {
        scale: 1e-4,
        read_len: 62,
        min_consensus_len: 80,
        max_consensus_len: 510,
        ..WorkloadConfig::default()
    })
    .targets(count, seed)
}

/// Bitwise comparison of two runs: f64s by bit pattern, everything else
/// by structural equality.
fn assert_runs_bitwise_equal(engine: &SystemRun, legacy: &SystemRun, context: &str) {
    assert_eq!(
        engine.wall_time_s.to_bits(),
        legacy.wall_time_s.to_bits(),
        "wall_time_s diverged ({context})"
    );
    assert_eq!(
        engine.dma_busy_s.to_bits(),
        legacy.dma_busy_s.to_bits(),
        "dma_busy_s diverged ({context})"
    );
    assert_eq!(
        engine.command_s.to_bits(),
        legacy.command_s.to_bits(),
        "command_s diverged ({context})"
    );
    assert_eq!(
        engine.compute_cycles, legacy.compute_cycles,
        "compute_cycles diverged ({context})"
    );
    assert_eq!(
        engine.comparisons, legacy.comparisons,
        "comparisons diverged ({context})"
    );
    assert_eq!(
        engine.unit_busy_s.len(),
        legacy.unit_busy_s.len(),
        "unit count diverged ({context})"
    );
    for (u, (a, b)) in engine
        .unit_busy_s
        .iter()
        .zip(legacy.unit_busy_s.iter())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "unit_busy_s[{u}] diverged ({context})"
        );
    }
    assert_eq!(
        engine.results.len(),
        legacy.results.len(),
        "result count diverged ({context})"
    );
    for (i, (a, b)) in engine.results.iter().zip(legacy.results.iter()).enumerate() {
        assert_eq!(a.outcomes, b.outcomes, "results[{i}].outcomes ({context})");
        assert_eq!(a.cycles, b.cycles, "results[{i}].cycles ({context})");
        assert_eq!(a.best, b.best, "results[{i}].best ({context})");
    }
    assert_eq!(
        engine.timeline, legacy.timeline,
        "timeline diverged ({context})"
    );
    assert_eq!(
        engine.resilience, legacy.resilience,
        "resilience report diverged ({context})"
    );
    match (&engine.telemetry, &legacy.telemetry) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert!(a.bitwise_eq(b), "telemetry snapshot diverged ({context})");
        }
        _ => panic!("telemetry presence diverged ({context})"),
    }
}

fn system(
    params: FpgaParams,
    sched: Scheduling,
    backend: SimBackend,
    telemetry: bool,
) -> AcceleratedSystem {
    AcceleratedSystem::new(params, sched)
        .expect("paper configurations fit the VU9P")
        .with_telemetry(telemetry)
        .with_backend(backend)
}

/// Fault-free parity across every scheduling × both paper configurations,
/// with telemetry enabled so the snapshot comparison is exercised too.
#[test]
fn engine_matches_legacy_fault_free() {
    let targets = workload(48, 0xFACADE);
    for params in [FpgaParams::serial(), FpgaParams::iracc()] {
        for sched in ALL_SCHEDULINGS {
            let engine = system(params, sched, SimBackend::EventDriven, true).run(&targets);
            let legacy = system(params, sched, SimBackend::LegacyStepper, true).run(&targets);
            assert_runs_bitwise_equal(
                &engine,
                &legacy,
                &format!("{sched:?}, {} units", params.num_units),
            );
        }
    }
}

/// Parity under injected faults: identically seeded plans must draw the
/// same faults in the same order on both backends, so the reports and
/// the repaired outputs agree bit for bit.
#[test]
fn engine_matches_legacy_under_faults() {
    let targets = workload(48, 0xBAD5EED);
    let policy = ResiliencePolicy::default();
    for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
        let mut engine_plan = FaultPlan::with_default_rates(2024);
        let mut legacy_plan = FaultPlan::with_default_rates(2024);
        let engine = system(FpgaParams::iracc(), sched, SimBackend::EventDriven, false)
            .run_resilient(&targets, &mut engine_plan, &policy);
        let legacy = system(FpgaParams::iracc(), sched, SimBackend::LegacyStepper, false)
            .run_resilient(&targets, &mut legacy_plan, &policy);
        assert_runs_bitwise_equal(&engine, &legacy, &format!("faulted, {sched:?}"));
        assert_eq!(
            engine_plan.counts(),
            legacy_plan.counts(),
            "fault plans must draw identically ({sched:?})"
        );
    }
}

/// An empty workload is a legal run on both backends and still agrees.
#[test]
fn engine_matches_legacy_on_empty_workload() {
    for sched in ALL_SCHEDULINGS {
        let engine = system(FpgaParams::serial(), sched, SimBackend::EventDriven, true).run(&[]);
        let legacy = system(FpgaParams::serial(), sched, SimBackend::LegacyStepper, true).run(&[]);
        assert_runs_bitwise_equal(&engine, &legacy, &format!("empty, {sched:?}"));
    }
}

/// Warming the functional oracle across host threads must be invisible to
/// the simulation: a run over an oracle precomputed with 1, 2 or 4 worker
/// threads is bitwise identical — results, timeline, telemetry — to a run
/// over a cold oracle (and therefore to the legacy single-threaded path
/// already pinned above). This is the determinism contract of
/// `FunctionalOracle::precompute`.
#[test]
fn threaded_oracle_warmup_is_bitwise_invisible() {
    let targets = workload(48, 0x04AC1E);
    for params in [FpgaParams::serial(), FpgaParams::iracc()] {
        for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let sys = |oracle: &mut FunctionalOracle| {
                system(params, sched, SimBackend::EventDriven, true)
                    .run_with_oracle(&targets, oracle)
            };
            let mut cold = FunctionalOracle::new();
            let baseline = sys(&mut cold);
            for threads in [1usize, 2, 4] {
                let mut warm = FunctionalOracle::new();
                warm.precompute(&targets, &params, threads);
                let run = sys(&mut warm);
                assert_runs_bitwise_equal(
                    &run,
                    &baseline,
                    &format!(
                        "{threads}-thread warmup, {sched:?}, {} units",
                        params.num_units
                    ),
                );
            }
        }
    }
}

fn scheduling_strategy() -> impl Strategy<Value = Scheduling> {
    prop_oneof![
        Just(Scheduling::Synchronous),
        Just(Scheduling::SynchronousUnsorted),
        Just(Scheduling::SynchronousByWorstCase),
        Just(Scheduling::Asynchronous),
    ]
}

proptest! {
    // Each case replays full systems under 4 schedulings × 2 backends, so
    // the local default is small to keep tier-1 wall-clock flat; CI's
    // parity-soak job soaks this suite in release at
    // IR_PROPTEST_CASES=256 (see README, "Test suite knobs").
    #![proptest_config(ProptestConfig::with_cases_env(8))]

    /// The differential property behind the backend swap: any seeded
    /// workload, any scheduling, either paper configuration, telemetry
    /// on or off, faults on or off — the event-driven engine and the
    /// legacy stepper are observationally indistinguishable.
    #[test]
    fn any_seeded_run_is_backend_invariant(
        workload_seed in any::<u64>(),
        count in 1usize..40,
        sched in scheduling_strategy(),
        iracc in any::<bool>(),
        telemetry in any::<bool>(),
        fault_seed in prop_oneof![Just(None), (any::<u64>(), 0.0f64..=0.2).prop_map(Some)],
    ) {
        let targets = workload(count, workload_seed);
        let params = if iracc { FpgaParams::iracc() } else { FpgaParams::serial() };
        let engine_sys = system(params, sched, SimBackend::EventDriven, telemetry);
        let legacy_sys = system(params, sched, SimBackend::LegacyStepper, telemetry);
        let (engine, legacy) = match fault_seed {
            None => (engine_sys.run(&targets), legacy_sys.run(&targets)),
            Some((seed, rate)) => {
                let policy = ResiliencePolicy::default();
                let mut engine_plan = FaultPlan::seeded(seed, FaultRates::uniform(rate));
                let mut legacy_plan = FaultPlan::seeded(seed, FaultRates::uniform(rate));
                (
                    engine_sys.run_resilient(&targets, &mut engine_plan, &policy),
                    legacy_sys.run_resilient(&targets, &mut legacy_plan, &policy),
                )
            }
        };
        assert_runs_bitwise_equal(
            &engine,
            &legacy,
            &format!("seed {workload_seed:#x}, {count} targets, {sched:?}"),
        );
    }
}
