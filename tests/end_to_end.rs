//! End-to-end integration tests: synthetic workloads through the full
//! accelerated system, checked against the golden model and the paper's
//! qualitative claims.

use ir_system::baselines::adam::AdamModel;
use ir_system::baselines::gatk::GatkModel;
use ir_system::core::IndelRealigner;
use ir_system::fpga::hls::hls_system;
use ir_system::fpga::{AcceleratedSystem, FpgaParams, Scheduling};
use ir_system::genome::Chromosome;
use ir_system::workloads::{scheduling_toy_targets, WorkloadConfig, WorkloadGenerator};

fn test_workload() -> Vec<ir_system::genome::RealignmentTarget> {
    let generator = WorkloadGenerator::new(WorkloadConfig {
        scale: 1e-5,
        read_len: 40,
        min_consensus_len: 56,
        max_consensus_len: 320,
        ..WorkloadConfig::default()
    });
    generator.targets(48, 0xe2e)
}

#[test]
fn accelerated_system_is_functionally_identical_to_software() {
    let targets = test_workload();
    let golden = IndelRealigner::new();
    for scheduling in [Scheduling::Synchronous, Scheduling::Asynchronous] {
        for params in [FpgaParams::serial(), FpgaParams::iracc()] {
            let system = AcceleratedSystem::new(params, scheduling).expect("fits");
            let run = system.run(&targets);
            for (result, target) in run.results.iter().zip(&targets) {
                let want = golden.realign(target);
                assert_eq!(result.best, want.best_consensus());
                assert_eq!(result.outcomes, want.outcomes());
                assert_eq!(&result.grid, want.grid());
            }
        }
    }
}

#[test]
fn timing_invariants_hold() {
    let targets = test_workload();
    for scheduling in [Scheduling::Synchronous, Scheduling::Asynchronous] {
        let system = AcceleratedSystem::new(FpgaParams::iracc(), scheduling).expect("fits");
        let run = system.run(&targets);
        assert!(run.wall_time_s > 0.0);
        assert!(run.utilization() > 0.0 && run.utilization() <= 1.0 + 1e-9);
        assert!(run.dma_fraction() >= 0.0 && run.dma_fraction() < 1.0);
        // No unit can be busier than the wall clock.
        for &busy in &run.unit_busy_s {
            assert!(busy <= run.wall_time_s + 1e-12);
        }
        // The wall clock cannot beat perfectly parallel compute.
        let total_busy: f64 = run.unit_busy_s.iter().sum();
        assert!(run.wall_time_s >= total_busy / run.unit_busy_s.len() as f64 - 1e-12);
    }
}

#[test]
fn async_wins_on_real_workloads() {
    let targets = test_workload();
    let sync = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Synchronous)
        .expect("fits")
        .run(&targets);
    let asynchronous = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)
        .expect("fits")
        .run(&targets);
    assert!(
        asynchronous.wall_time_s <= sync.wall_time_s * 1.001,
        "async {} vs sync {}",
        asynchronous.wall_time_s,
        sync.wall_time_s
    );
}

#[test]
fn figure7_toy_shows_the_scheduling_gap() {
    let targets = scheduling_toy_targets();
    let params = FpgaParams {
        num_units: 4,
        ..FpgaParams::serial()
    };
    let sync = AcceleratedSystem::new(params, Scheduling::Synchronous)
        .expect("fits")
        .run(&targets);
    let asynchronous = AcceleratedSystem::new(params, Scheduling::Asynchronous)
        .expect("fits")
        .run(&targets);
    // The paper's toy: async finishes strictly earlier and keeps units busier.
    assert!(asynchronous.wall_time_s < sync.wall_time_s * 0.95);
    assert!(asynchronous.utilization() > sync.utilization());
}

#[test]
fn speedup_ordering_matches_figure9() {
    // GATK3 (slowest software) < ADAM < HLS < serial async < IRACC.
    let targets = test_workload();
    let shapes: Vec<_> = targets.iter().map(|t| t.shape()).collect();

    let gatk_s = GatkModel::default().run_shapes(&shapes).wall_time_s;
    let adam_s = AdamModel::default()
        .without_startup()
        .run_shapes(&shapes)
        .wall_time_s;
    let hls_s = hls_system().expect("fits").run(&targets).wall_time_s;
    let serial_s = AcceleratedSystem::new(FpgaParams::serial(), Scheduling::Asynchronous)
        .expect("fits")
        .run(&targets)
        .wall_time_s;
    let iracc_s = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)
        .expect("fits")
        .run(&targets)
        .wall_time_s;

    assert!(adam_s < gatk_s, "ADAM beats GATK3");
    assert!(hls_s < gatk_s, "even the HLS build beats GATK3");
    // serial-vs-HLS is genuinely close at this tiny scale (48 targets do
    // not keep 32 units busy); the bench harness checks that ordering at
    // realistic target counts.
    assert!(iracc_s < serial_s, "data parallelism wins");
    assert!(iracc_s < hls_s, "the Chisel datapath crushes the HLS build");
}

#[test]
fn per_chromosome_workloads_scale_with_chromosome_size() {
    let generator = WorkloadGenerator::new(WorkloadConfig {
        scale: 1e-4,
        read_len: 40,
        min_consensus_len: 56,
        max_consensus_len: 320,
        ..WorkloadConfig::default()
    });
    let ch2 = generator.chromosome(Chromosome::Autosome(2));
    let ch21 = generator.chromosome(Chromosome::Autosome(21));
    assert!(ch2.targets.len() > 5 * ch21.targets.len());
}

#[test]
fn traced_timeline_is_consistent_with_wall_time() {
    let targets = scheduling_toy_targets();
    let params = FpgaParams {
        num_units: 4,
        ..FpgaParams::serial()
    };
    let run = AcceleratedSystem::new(params, Scheduling::Asynchronous)
        .expect("fits")
        .with_telemetry(true)
        .run(&targets);
    assert!(!run.timeline.is_empty());
    let latest = run.timeline.iter().map(|e| e.end_s).fold(0.0f64, f64::max);
    assert!(latest <= run.wall_time_s + 1e-9);
    // Compute intervals on one unit never overlap.
    for unit in 0..4 {
        let mut events: Vec<_> = run
            .timeline
            .iter()
            .filter(|e| e.unit == unit && e.phase == ir_system::fpga::TimelinePhase::Compute)
            .collect();
        events.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        for pair in events.windows(2) {
            assert!(pair[0].end_s <= pair[1].start_s + 1e-12);
        }
    }
}
