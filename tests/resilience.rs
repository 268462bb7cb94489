//! Resilience-layer integration tests: fault-free runs are bit-identical
//! to the plain entry points, faulted runs always complete under the
//! default policy, and — the central differential property — a resilient
//! run under *any* seeded fault plan either fails with an explicit error
//! or produces output byte-identical to the fault-free golden run. There
//! is no third outcome: silent corruption cannot survive full read-back
//! verification.

use proptest::prelude::*;

use ir_system::core::IndelRealigner;
use ir_system::fpga::driver::{HostDriver, ResiliencePolicy};
use ir_system::fpga::fault::{FaultPlan, FaultRates};
use ir_system::fpga::layout::encode_outputs;
use ir_system::fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_system::genome::{Base, Qual, Read, RealignmentTarget, Sequence};
use ir_system::workloads::{WorkloadConfig, WorkloadGenerator};

fn workload(count: usize) -> Vec<RealignmentTarget> {
    WorkloadGenerator::new(WorkloadConfig {
        scale: 1e-4,
        read_len: 62,
        min_consensus_len: 80,
        max_consensus_len: 510,
        ..WorkloadConfig::default()
    })
    .targets(count, 0xC0FFEE)
}

/// The acceptance-criterion regression: `run_resilient` with an inert
/// plan must be bit-identical to `run` — same wall clock, same cycles,
/// same outcomes, same per-unit busy times — with a clean report.
#[test]
fn inert_plan_system_run_is_bit_identical() {
    let targets = workload(48);
    for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
        let system = AcceleratedSystem::new(FpgaParams::iracc(), sched).expect("iracc fits");
        let plain = system.run(&targets);
        let mut plan = FaultPlan::none();
        let resilient = system.run_resilient(&targets, &mut plan, &ResiliencePolicy::default());

        assert_eq!(resilient.wall_time_s, plain.wall_time_s);
        assert_eq!(resilient.dma_busy_s, plain.dma_busy_s);
        assert_eq!(resilient.command_s, plain.command_s);
        assert_eq!(resilient.compute_cycles, plain.compute_cycles);
        assert_eq!(resilient.comparisons, plain.comparisons);
        assert_eq!(resilient.unit_busy_s, plain.unit_busy_s);
        assert_eq!(resilient.results.len(), plain.results.len());
        for (a, b) in resilient.results.iter().zip(plain.results.iter()) {
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.best, b.best);
        }
        let report = resilient
            .resilience
            .expect("resilient run attaches a report");
        assert!(report.is_clean(), "inert plan must leave a clean report");
        assert_eq!(plan.counts().total(), 0, "inert plan draws nothing");
    }
}

/// Same regression at the driver level: an inert plan through the
/// resilient path matches the plain `run_target` byte for byte.
#[test]
fn inert_plan_driver_run_matches_plain() {
    let targets = workload(12);
    let mut plain_driver = HostDriver::new(FpgaParams::iracc()).expect("fits");
    let mut resilient_driver = HostDriver::new(FpgaParams::iracc()).expect("fits");
    let mut plan = FaultPlan::none();
    let (runs, report) = resilient_driver
        .run_batch_resilient(&targets, &mut plan, &ResiliencePolicy::default())
        .expect("fault-free batch succeeds");
    assert!(report.is_clean());
    for (i, (target, resilient)) in targets.iter().zip(&runs).enumerate() {
        let plain = plain_driver
            .run_target(i % plain_driver.num_units(), target)
            .expect("plain run succeeds");
        assert_eq!(resilient.outcomes, plain.outcomes);
        assert_eq!(resilient.cycles, plain.cycles);
        assert!(!resilient.via_fallback);
    }
}

/// With faults at the default study rates and the default policy, every
/// target still completes and every shipped outcome is golden.
#[test]
fn default_rate_faults_every_target_completes() {
    let targets = workload(64);
    let golden = IndelRealigner::new();
    for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
        let system = AcceleratedSystem::new(FpgaParams::iracc(), sched).expect("iracc fits");
        let mut plan = FaultPlan::with_default_rates(1234);
        let run = system.run_resilient(&targets, &mut plan, &ResiliencePolicy::default());
        assert_eq!(run.results.len(), targets.len());
        for (target, result) in targets.iter().zip(&run.results) {
            assert_eq!(
                encode_outputs(&result.outcomes, target.start_pos()),
                encode_outputs(&golden.realign_outcomes(target), target.start_pos()),
                "verify_rate 1.0 must not ship corruption"
            );
        }
        let report = run.resilience.expect("report attached");
        assert_eq!(report.faults, plan.counts());
    }
}

/// `run_resilient_with_oracle` is bitwise-identical to `run_resilient`:
/// the oracle memoizes only the fault-free datapath result, and a fault
/// that changes a run copies the shared entry on write, never changing
/// the cached one — whether the oracle starts cold, pre-warmed, or reused
/// across seeds.
#[test]
fn resilient_with_oracle_matches_plain_resilient() {
    use ir_system::fpga::FunctionalOracle;
    let targets = workload(48);
    for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
        let system = AcceleratedSystem::new(FpgaParams::iracc(), sched).expect("iracc fits");
        let mut warm = FunctionalOracle::new();
        warm.precompute(&targets, &FpgaParams::iracc(), 2);
        let mut cold = FunctionalOracle::new();
        for seed in [7u64, 1234] {
            let mut plan_a = FaultPlan::with_default_rates(seed);
            let plain = system.run_resilient(&targets, &mut plan_a, &ResiliencePolicy::default());
            for oracle in [&mut warm, &mut cold] {
                let mut plan_b = FaultPlan::with_default_rates(seed);
                let via = system.run_resilient_with_oracle(
                    &targets,
                    &mut plan_b,
                    &ResiliencePolicy::default(),
                    oracle,
                );
                assert_eq!(plain.wall_time_s.to_bits(), via.wall_time_s.to_bits());
                assert_eq!(plain.compute_cycles, via.compute_cycles);
                assert_eq!(plain.comparisons, via.comparisons);
                assert_eq!(plain.resilience, via.resilience);
                for (a, b) in plain.results.iter().zip(&via.results) {
                    assert_eq!(a.outcomes, b.outcomes);
                    assert_eq!(a.cycles, b.cycles);
                    assert_eq!(a.best, b.best);
                }
            }
        }
    }
}

/// The driver's batch path also always completes at default rates.
#[test]
fn default_rate_faults_driver_batch_completes() {
    let targets = workload(32);
    let golden = IndelRealigner::new();
    let mut driver = HostDriver::new(FpgaParams::iracc()).expect("fits");
    let mut plan = FaultPlan::with_default_rates(99);
    let (runs, _report) = driver
        .run_batch_resilient(&targets, &mut plan, &ResiliencePolicy::default())
        .expect("default-rate batch completes");
    assert_eq!(runs.len(), targets.len());
    for (target, run) in targets.iter().zip(&runs) {
        assert_eq!(
            encode_outputs(&run.outcomes, target.start_pos()),
            encode_outputs(&golden.realign_outcomes(target), target.start_pos())
        );
    }
}

/// Each failure counts once, by where it happened: a failed DMA
/// transfer is a DMA fault (never also a response timeout or a corrupt
/// read-back), a watchdog timeout is a dropped response, a stale
/// response is a duplicated one, even the duplicate of a batch's last
/// response, and a detected hang is an injected one
/// (`ResilienceReport::broken_identity`). On one unit both the
/// functional driver and the timing model reconcile their detection
/// counters with the injected faults, seed by seed, and their whole
/// reports are equal. (On more units the driver's rerouting and the
/// schedulers' dispatch order differ, so only the identities would
/// hold.)
#[test]
fn dma_faults_and_timeouts_reconcile_with_the_injected_faults() {
    let targets = workload(64);
    let params = FpgaParams {
        num_units: 1,
        ..FpgaParams::iracc()
    };
    let policy = ResiliencePolicy::default();
    let system = AcceleratedSystem::new(params, Scheduling::SynchronousUnsorted).expect("fits");
    let (mut dma_faults, mut duplicates) = (0, 0);
    for seed in 0..40u64 {
        let mut driver = HostDriver::new(params).expect("fits");
        let mut plan = FaultPlan::seeded(seed, FaultRates::uniform(0.02));
        let (_, driver_report) = driver
            .run_batch_resilient(&targets, &mut plan, &policy)
            .expect("fallback completes the batch");
        let mut plan = FaultPlan::seeded(seed, FaultRates::uniform(0.02));
        let model_report = system
            .run_resilient(&targets, &mut plan, &policy)
            .resilience
            .expect("report attached");
        for (side, r) in [("driver", &driver_report), ("timing model", &model_report)] {
            assert_eq!(r.broken_identity(), None, "{side}, seed {seed}");
        }
        assert_eq!(driver_report, model_report, "seed {seed}");
        dma_faults += driver_report.dma_faults;
        duplicates += driver_report.faults.responses_duplicated;
    }
    assert!(dma_faults > 0, "the seeds must inject DMA faults");
    assert!(duplicates > 0, "the seeds must duplicate responses");
}

fn base_strategy() -> impl Strategy<Value = Base> {
    prop_oneof![
        4 => Just(Base::A),
        4 => Just(Base::C),
        4 => Just(Base::G),
        4 => Just(Base::T),
        1 => Just(Base::N),
    ]
}

fn sequence_strategy(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(base_strategy(), len).prop_map(Sequence::new)
}

fn read_strategy(max_len: usize) -> impl Strategy<Value = Read> {
    (4usize..=max_len)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(base_strategy(), n),
                prop::collection::vec(0u8..=60, n),
                0u64..100,
            )
        })
        .prop_map(|(bases, quals, start)| {
            Read::new(
                "prop",
                Sequence::new(bases),
                Qual::from_raw_scores(&quals).expect("scores ≤ 60"),
                start,
            )
            .expect("non-empty read with matching quals")
        })
}

prop_compose! {
    fn target_strategy()(
        reference in sequence_strategy(16..=64),
        alts in prop::collection::vec(sequence_strategy(16..=64), 0..4),
        reads in prop::collection::vec(read_strategy(12), 1..6),
        start in 0u64..1_000_000,
    ) -> RealignmentTarget {
        RealignmentTarget::builder(start)
            .reference(reference)
            .consensuses(alts)
            .reads(reads)
            .build()
            .expect("generated dimensions respect the limits")
    }
}

/// One fault site's rate in the differential below.
fn rate() -> std::ops::RangeInclusive<f64> {
    0.0..=0.3
}

proptest! {
    // Local default trimmed to keep tier-1 wall-clock flat; CI's
    // parity-soak job soaks this suite in release at
    // IR_PROPTEST_CASES=256 (see README, "Test suite knobs").
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    /// The differential property from the issue: for any seeded fault
    /// plan and rate mix, a resilient run under the default policy
    /// (full read-back verification, fallback on or off) either returns
    /// an explicit error or its encoded output images are byte-identical
    /// to the fault-free golden run. Silent corruption never ships.
    #[test]
    fn any_seeded_fault_plan_errs_or_matches_golden(
        targets in prop::collection::vec(target_strategy(), 1..5),
        seed in any::<u64>(),
        rate in 0.0f64..=0.4,
        fallback in any::<bool>(),
    ) {
        let golden = IndelRealigner::new();
        let mut driver = HostDriver::new(FpgaParams::iracc()).expect("fits");
        let mut plan = FaultPlan::seeded(seed, FaultRates::uniform(rate));
        let policy = ResiliencePolicy {
            software_fallback: fallback,
            ..ResiliencePolicy::default()
        };
        match driver.run_batch_resilient(&targets, &mut plan, &policy) {
            Err(_) => {
                // Explicit failure is an allowed outcome (only reachable
                // with fallback off); silence is not.
                prop_assert!(!fallback, "fallback-on runs must complete");
            }
            Ok((runs, _report)) => {
                prop_assert_eq!(runs.len(), targets.len());
                for (target, run) in targets.iter().zip(&runs) {
                    prop_assert_eq!(
                        encode_outputs(&run.outcomes, target.start_pos()),
                        encode_outputs(
                            &golden.realign_outcomes(target),
                            target.start_pos()
                        ),
                        "fault plan seed {} rate {} shipped corrupt output",
                        seed,
                        rate
                    );
                }
            }
        }
    }

    /// The driver and the timing model run one recovery state machine, so
    /// on one unit, in submission order, they draw the same fault stream
    /// and must agree exactly, at any rate mix, verify rate and retry
    /// budget: with fallback on, their reports are equal and so are each
    /// target's encoded output images (decoding canonicalises the offsets
    /// of reads left in place, so images, not outcomes, are compared) and
    /// cycles; with fallback off, the driver errs exactly when the model
    /// counts a fallback. On more units they need not agree: the driver
    /// reroutes a retry to the first healthy unit and dispatches in
    /// round-robin order, while the schedulers keep the dispatched unit
    /// and order targets their own way.
    #[test]
    fn driver_and_timing_model_recover_alike_on_one_unit(
        targets in prop::collection::vec(target_strategy(), 1..=16),
        seed in any::<u64>(),
        (dma_timeout, dma_truncation, response_drop, response_duplicate, unit_hang, output_bit_flip)
            in (rate(), rate(), rate(), rate(), rate(), rate()),
        verify_rate in prop_oneof![Just(0.0), Just(0.1), Just(0.5), Just(1.0)],
        max_retries in 0u32..=3,
    ) {
        let params = FpgaParams { num_units: 1, ..FpgaParams::iracc() };
        let system = AcceleratedSystem::new(params, Scheduling::SynchronousUnsorted).expect("fits");
        let rates = FaultRates {
            dma_timeout,
            dma_truncation,
            response_drop,
            response_duplicate,
            unit_hang,
            output_bit_flip,
        };
        for software_fallback in [true, false] {
            let policy = ResiliencePolicy {
                verify_rate,
                max_retries,
                software_fallback,
                ..ResiliencePolicy::default()
            };
            let model =
                system.run_resilient(&targets, &mut FaultPlan::seeded(seed, rates), &policy);
            let model_report = model.resilience.expect("report attached");
            prop_assert_eq!(model_report.broken_identity(), None);
            let mut driver = HostDriver::new(params).expect("fits");
            let driver_run =
                driver.run_batch_resilient(&targets, &mut FaultPlan::seeded(seed, rates), &policy);
            if !software_fallback {
                prop_assert_eq!(driver_run.is_err(), model_report.fallbacks > 0);
                continue;
            }
            let (runs, driver_report) = driver_run.expect("fallback completes the batch");
            prop_assert_eq!(&driver_report, &model_report);
            for ((target, run), result) in targets.iter().zip(&runs).zip(&model.results) {
                prop_assert_eq!(
                    encode_outputs(&run.outcomes, target.start_pos()),
                    encode_outputs(&result.outcomes, target.start_pos())
                );
                prop_assert_eq!(run.cycles, result.cycles);
            }
        }
    }
}
