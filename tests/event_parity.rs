//! The event engine's run contract.
//!
//! - **Golden digests.** Whole [`SystemRun`]s of both paper
//!   configurations under every scheduling, telemetry off and on,
//!   fault-free and under a seeded fault plan, plus the empty workload
//!   and three edge cases (identical targets, fewer targets than units,
//!   one unit), hash to committed [`run_digest`] constants: the same f64
//!   bits for every accumulated second, the same cycle and comparison
//!   counts, the same results, timeline, resilience report and telemetry
//!   snapshot.
//! - **Execution-path parity.** On any seeded workload, the paths that
//!   must not change a run agree bit for bit: the jump-to-outcome unit
//!   model against the cycle-stepping reference, telemetry off against
//!   on, an inert fault plan against the plain run, and a run over a
//!   threaded oracle warmup against a cold run.

mod common;

use proptest::prelude::*;

use common::run_digest;

use ir_system::fpga::driver::ResiliencePolicy;
use ir_system::fpga::fault::{FaultPlan, FaultRates};
use ir_system::fpga::unit::{simulate_target, simulate_target_fast};
use ir_system::fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling, SystemRun};
use ir_system::genome::RealignmentTarget;
use ir_system::workloads::{WorkloadConfig, WorkloadGenerator};

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
fn assert_runs_bitwise_equal(a: &SystemRun, b: &SystemRun, context: &str) {
    assert_eq!(
        a.wall_time_s.to_bits(),
        b.wall_time_s.to_bits(),
        "wall_time_s diverged ({context})"
    );
    assert_eq!(
        a.dma_busy_s.to_bits(),
        b.dma_busy_s.to_bits(),
        "dma_busy_s diverged ({context})"
    );
    assert_eq!(
        a.command_s.to_bits(),
        b.command_s.to_bits(),
        "command_s diverged ({context})"
    );
    assert_eq!(
        a.compute_cycles, b.compute_cycles,
        "compute_cycles diverged ({context})"
    );
    assert_eq!(
        a.comparisons, b.comparisons,
        "comparisons diverged ({context})"
    );
    assert_eq!(
        a.unit_busy_s.len(),
        b.unit_busy_s.len(),
        "unit count diverged ({context})"
    );
    for (u, (a, b)) in a.unit_busy_s.iter().zip(b.unit_busy_s.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "unit_busy_s[{u}] diverged ({context})"
        );
    }
    assert_eq!(
        a.results.len(),
        b.results.len(),
        "result count diverged ({context})"
    );
    for (i, (a, b)) in a.results.iter().zip(b.results.iter()).enumerate() {
        assert_eq!(a.outcomes, b.outcomes, "results[{i}].outcomes ({context})");
        assert_eq!(a.cycles, b.cycles, "results[{i}].cycles ({context})");
        assert_eq!(a.best, b.best, "results[{i}].best ({context})");
    }
    assert_eq!(a.timeline, b.timeline, "timeline diverged ({context})");
    assert_eq!(
        a.resilience, b.resilience,
        "resilience report diverged ({context})"
    );
    match (&a.telemetry, &b.telemetry) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert!(a.bitwise_eq(b), "telemetry snapshot diverged ({context})");
        }
        _ => panic!("telemetry presence diverged ({context})"),
    }
}

fn system(params: FpgaParams, sched: Scheduling, telemetry: bool) -> AcceleratedSystem {
    AcceleratedSystem::new(params, sched)
        .expect("paper configurations fit the VU9P")
        .with_telemetry(telemetry)
}

/// The seeded plan of `telemetry_snapshots_match_golden_digests`: heavy
/// enough to hang units into quarantine under the default policy.
fn golden_fault_plan() -> FaultPlan {
    FaultPlan::seeded(
        0x7E1E,
        FaultRates {
            unit_hang: 0.2,
            ..FaultRates::uniform(0.05)
        },
    )
}

/// The four schedulings, in the row order of the golden tables.
const SCHEDULINGS: [Scheduling; 4] = [
    Scheduling::Synchronous,
    Scheduling::SynchronousUnsorted,
    Scheduling::SynchronousByWorstCase,
    Scheduling::Asynchronous,
];

/// Golden [`run_digest`]s: per paper configuration (serial, then IRACC),
/// per scheduling in [`SCHEDULINGS`] order, telemetry off then on.
type GoldenRuns = [[[u64; 2]; 4]; 2];

/// Runs every golden case and collects each digest that misses its
/// constant.
fn golden_mismatches(golden: &GoldenRuns, faults: bool) -> Vec<String> {
    let targets = workload(48, 0x7E1E);
    let configs = [
        ("serial", FpgaParams::serial()),
        ("iracc", FpgaParams::iracc()),
    ];
    let mut mismatches = Vec::new();
    for ((name, params), per_sched) in configs.into_iter().zip(golden) {
        for (sched, digests) in SCHEDULINGS.into_iter().zip(per_sched) {
            for (telemetry, &want) in [false, true].into_iter().zip(digests) {
                let sys = system(params, sched, telemetry);
                let run = if faults {
                    let mut plan = golden_fault_plan();
                    let run = sys.run_resilient(&targets, &mut plan, &ResiliencePolicy::default());
                    assert!(plan.counts().total() > 0, "the plan injects faults");
                    run
                } else {
                    sys.run(&targets)
                };
                let got = run_digest(&run);
                if got != want {
                    mismatches.push(format!(
                        "{name}, {sched:?}, telemetry {telemetry}: \
                         {got:#018x} != golden {want:#018x}"
                    ));
                }
            }
        }
    }
    mismatches
}

/// Golden digests of whole fault-free runs for both paper configurations
/// and every scheduling, telemetry off and on. A digest may change only
/// with a modeled-output change that explains it.
#[test]
fn fault_free_runs_match_golden_digests() {
    const GOLDEN: GoldenRuns = [
        [
            // serial
            [0xacd6_029d_4281_ac1e, 0x219b_ec1d_c59d_d555], // Synchronous
            [0xd47f_6b83_11f2_e2f3, 0xde26_889f_1b27_e657], // SynchronousUnsorted
            [0xe979_46a7_162c_6031, 0xe626_2c1f_234d_526a], // SynchronousByWorstCase
            [0x1f4f_605f_dd51_f8a8, 0x00af_dd0b_2b01_996f], // Asynchronous
        ],
        [
            // iracc
            [0xedab_691c_e847_ecdd, 0xa058_57df_30ff_1d4c], // Synchronous
            [0xd6ac_5b91_749d_c537, 0xc262_a431_5281_f51f], // SynchronousUnsorted
            [0xcfb6_eafa_c16a_7241, 0x72a7_565a_a596_609c], // SynchronousByWorstCase
            [0x9628_ac64_e1e0_9c1e, 0x366a_33ff_a228_5ff7], // Asynchronous
        ],
    ];
    let mismatches = golden_mismatches(&GOLDEN, false);
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// Golden digests of whole runs under the seeded fault plan: the
/// resilience report and the repaired outputs are pinned bit for bit.
#[test]
fn faulted_runs_match_golden_digests() {
    const GOLDEN: GoldenRuns = [
        [
            // serial
            [0x568d_2b46_3a8c_997b, 0x465d_512b_8160_d058], // Synchronous
            [0xe4fd_aecb_69d8_4b65, 0xfdb0_70c2_37f5_a319], // SynchronousUnsorted
            [0x733d_e85d_9c6a_1857, 0x2f47_2821_22dc_f2a0], // SynchronousByWorstCase
            [0x784b_071a_6145_635f, 0x257d_45ce_b7f6_8a1d], // Asynchronous
        ],
        [
            // iracc
            [0xf24b_4204_4cb3_d02c, 0x6938_825e_2c95_4686], // Synchronous
            [0xd6a4_f6de_ba15_966e, 0x627b_c65b_905b_c7a1], // SynchronousUnsorted
            [0xe489_7d5d_bd85_2255, 0x9936_cf15_c1ea_304b], // SynchronousByWorstCase
            [0x0a49_40bf_e816_e59c, 0x0399_e85e_4850_e3ee], // Asynchronous
        ],
    ];
    let mismatches = golden_mismatches(&GOLDEN, true);
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// An empty workload is a legal run under every scheduling, and every
/// scheduling reports the same empty run (telemetry on).
#[test]
fn empty_workload_runs_match_golden_digests() {
    const GOLDEN: u64 = 0x532f_f32d_55b9_ddc2;
    for sched in SCHEDULINGS {
        let got = run_digest(&system(FpgaParams::serial(), sched, true).run(&[]));
        assert_eq!(got, GOLDEN, "empty, {sched:?}: {got:#018x}");
    }
}

/// Golden [`run_digest`]s of one edge case, per scheduling in
/// [`SCHEDULINGS`] order.
struct EdgeGoldens {
    /// Fault-free, telemetry off then on.
    runs: [[u64; 2]; 4],
    /// Under [`golden_fault_plan`], telemetry on.
    faulted: [u64; 4],
}

/// Runs one edge case under every scheduling and collects each digest
/// that misses its constant.
fn edge_mismatches(
    name: &str,
    params: FpgaParams,
    targets: &[RealignmentTarget],
    golden: &EdgeGoldens,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (i, sched) in SCHEDULINGS.into_iter().enumerate() {
        let [off, on] = golden.runs[i];
        let cases = [
            ("off", system(params, sched, false).run(targets), off),
            ("on", system(params, sched, true).run(targets), on),
            (
                "faulted",
                system(params, sched, true).run_resilient(
                    targets,
                    &mut golden_fault_plan(),
                    &ResiliencePolicy::default(),
                ),
                golden.faulted[i],
            ),
        ];
        for (case, run, want) in cases {
            let got = run_digest(&run);
            if got != want {
                mismatches.push(format!(
                    "{name}, {sched:?}, {case}: {got:#018x} != golden {want:#018x}"
                ));
            }
        }
    }
    mismatches
}

/// Engine edge cases the 48-target goldens do not reach, pinned the same
/// way: identical targets on 4 units (units free at the same instants, so
/// dispatches rest on the lowest-unit-first tie-break), fewer targets than
/// units, and a single unit.
#[test]
fn edge_case_runs_match_golden_digests() {
    const IDENTICAL: EdgeGoldens = EdgeGoldens {
        runs: [
            [0x337e_4f0b_a7dc_882d, 0x8d3d_f07f_14a3_3809], // Synchronous
            [0x337e_4f0b_a7dc_882d, 0x8d3d_f07f_14a3_3809], // SynchronousUnsorted
            [0x337e_4f0b_a7dc_882d, 0x8d3d_f07f_14a3_3809], // SynchronousByWorstCase
            [0xbaa2_dcde_add2_f53e, 0x09dd_f965_0619_ef6a], // Asynchronous
        ],
        faulted: [
            0x91d4_852e_0640_cf1c, // Synchronous
            0x91d4_852e_0640_cf1c, // SynchronousUnsorted
            0x91d4_852e_0640_cf1c, // SynchronousByWorstCase
            0xabbe_c4e7_aaf1_f61e, // Asynchronous
        ],
    };
    const FEW: EdgeGoldens = EdgeGoldens {
        runs: [
            [0xcbb1_f256_6e11_bff9, 0x9de6_9dbd_2eb6_d2f6], // Synchronous
            [0x1501_7b07_36be_d9c5, 0xbb53_5731_fcf1_27ec], // SynchronousUnsorted
            [0xc7fa_c485_e5c4_8bb5, 0x08f0_0ef6_7e03_b72f], // SynchronousByWorstCase
            [0xe590_dd7d_1a40_e645, 0x4579_bae8_87f5_1772], // Asynchronous
        ],
        faulted: [
            0x1b64_7a20_6692_056c, // Synchronous
            0x9bba_87c7_b77e_065a, // SynchronousUnsorted
            0xbc99_cde2_3d98_d86d, // SynchronousByWorstCase
            0xa059_929c_c3c8_7274, // Asynchronous
        ],
    };
    const ONE_UNIT: EdgeGoldens = EdgeGoldens {
        runs: [
            [0xc4ac_2171_e90e_fad9, 0x2b6e_e332_f5da_6349], // Synchronous
            [0x43bd_ff87_0beb_5745, 0x99eb_2ccb_3027_ffdc], // SynchronousUnsorted
            [0xdd46_95a9_35ba_6d13, 0x9fc3_e7f6_e1a6_7d84], // SynchronousByWorstCase
            [0x3058_7b25_5117_5745, 0x7a1b_52e0_2e56_c21a], // Asynchronous
        ],
        faulted: [
            0x3417_c0b8_b7d9_c312, // Synchronous
            0x146f_c150_54cf_d759, // SynchronousUnsorted
            0x487c_6f80_aa64_c343, // SynchronousByWorstCase
            0x9483_dcc8_5a44_1bcf, // Asynchronous
        ],
    };
    let base = workload(12, 0xED6E);
    let identical = vec![base[0].clone(); 18];
    let units = |num_units| FpgaParams {
        num_units,
        ..FpgaParams::iracc()
    };
    let mut mismatches = edge_mismatches("identical", units(4), &identical, &IDENTICAL);
    mismatches.extend(edge_mismatches(
        "few",
        FpgaParams::iracc(),
        &base[..5],
        &FEW,
    ));
    mismatches.extend(edge_mismatches("one unit", units(1), &base, &ONE_UNIT));
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// Warming the functional oracle across host threads must be invisible to
/// the simulation: a run over an oracle precomputed with 1, 2 or 4 worker
/// threads is bitwise identical — results, timeline, telemetry — to a run
/// over a cold oracle. This is the determinism contract of
/// `FunctionalOracle::precompute`.
#[test]
fn threaded_oracle_warmup_is_bitwise_invisible() {
    let targets = workload(48, 0x04AC1E);
    for params in [FpgaParams::serial(), FpgaParams::iracc()] {
        for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let sys = |oracle: &mut FunctionalOracle| {
                system(params, sched, true).run_with_oracle(&targets, oracle)
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
    // Each case steps every target through the cycle-by-cycle reference
    // and replays the system six times, so the local default is small to
    // keep tier-1 wall-clock flat; CI's parity-soak job soaks this suite
    // in release at IR_PROPTEST_CASES=256 (see README, "Test suite knobs").
    #![proptest_config(ProptestConfig::with_cases_env(8))]

    /// Any seeded workload, any scheduling, either paper configuration,
    /// telemetry on or off, faults on or off: every backend pair that
    /// must not change a run agrees bit for bit.
    ///
    /// 1. The jump-to-outcome unit model the engine runs
    ///    (`simulate_target_fast`) equals the cycle-stepping reference
    ///    (`simulate_target`) on every target.
    /// 2. A telemetry-off run equals the telemetry-on run with its
    ///    snapshot and trace-derived timeline masked, under identically
    ///    seeded fault plans when faults are on.
    /// 3. `run_resilient` under `FaultPlan::none()` equals `run`, except
    ///    for an all-zero report (which a telemetry snapshot also
    ///    records).
    /// 4. `run_with_oracle` over an oracle warmed on 2 threads equals
    ///    `run`.
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
        let context = format!("seed {workload_seed:#x}, {count} targets, {sched:?}");

        for (i, target) in targets.iter().enumerate() {
            prop_assert_eq!(
                simulate_target_fast(target, &params),
                simulate_target(target, &params),
                "target {} ({})", i, &context
            );
        }

        let policy = ResiliencePolicy::default();
        let run_of = |sys: &AcceleratedSystem| match fault_seed {
            None => sys.run(&targets),
            Some((seed, rate)) => {
                let mut plan = FaultPlan::seeded(seed, FaultRates::uniform(rate));
                sys.run_resilient(&targets, &mut plan, &policy)
            }
        };
        let off = run_of(&system(params, sched, false));
        let mut on = run_of(&system(params, sched, true));
        prop_assert!(on.telemetry.is_some() && off.telemetry.is_none());
        on.telemetry = None;
        on.timeline.clear();
        assert_runs_bitwise_equal(&on, &off, &format!("telemetry off, {context}"));

        let sys = system(params, sched, telemetry);
        let plain = sys.run(&targets);
        let mut inert = sys.run_resilient(&targets, &mut FaultPlan::none(), &policy);
        let report = inert.resilience.take().expect("resilient runs report");
        prop_assert!(report.is_clean(), "{:?} ({})", report, &context);
        let mut expected = plain.clone();
        if let Some(snapshot) = expected.telemetry.as_mut() {
            report.record_into(&mut snapshot.counters);
        }
        assert_runs_bitwise_equal(&inert, &expected, &format!("inert plan, {context}"));

        let mut oracle = FunctionalOracle::new();
        oracle.precompute(&targets, &params, 2);
        let warm = sys.run_with_oracle(&targets, &mut oracle);
        assert_runs_bitwise_equal(&warm, &plain, &format!("2-thread oracle, {context}"));
    }
}
