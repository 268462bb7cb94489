//! Resilience study: what do hardware faults cost, and what does
//! recovering from them cost?
//!
//! The paper's accelerator runs inside leased cloud FPGAs, where the
//! happy path of the cycle model is optimistic: DMA chains stall,
//! responses get lost, units wedge, bits flip, and spot instances
//! disappear mid-genome. This sweep injects seeded faults at every
//! modeled hardware boundary (`ir_fpga::fault`) and replays the host
//! resilience policy (watchdog, bounded retry, verified read-back,
//! quarantine, software fallback) at several fault rates and
//! verification sampling rates, then prices spot-market interruptions
//! on the fleet schedule with and without per-chromosome checkpoints.
//!
//! Headline: at the default policy (verify every read-back) no silent
//! corruption is possible and every target completes; the price of that
//! guarantee shows up as wall-time overhead that stays small until
//! fault rates reach ~1e-2 per event.

use ir_bench::{bench_workload, chromosome_sweep, scale_from_env, threads_from_env, Table};
use ir_cloud::{schedule_jobs, simulate_spot_schedule_traced, CheckpointPolicy, SpotMarket};
use ir_core::IndelRealigner;
use ir_fpga::fault::{FaultPlan, FaultRates};
use ir_fpga::layout::encode_outputs;
use ir_fpga::Telemetry;
use ir_fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, ResiliencePolicy, Scheduling};
use ir_genome::{Chromosome, RealignmentTarget};

/// Targets in the fault sweep — fixed (not scaled) so the sweep sees
/// enough injection events to resolve rates down to 1e-4 even at the
/// default laptop scale.
const SWEEP_TARGETS: usize = 512;

/// Encodes the golden model's outputs for every target once; the sweep
/// reuses them for all rows rather than re-running the software
/// realigner 512 × 12 times.
fn golden_encodings(targets: &[RealignmentTarget]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let golden = IndelRealigner::new();
    targets
        .iter()
        .map(|t| encode_outputs(&golden.realign_outcomes(t), t.start_pos()))
        .collect()
}

/// Counts targets whose shipped outcomes differ from the golden model —
/// the silent corruptions that escaped detection.
fn silent_corruptions(
    targets: &[RealignmentTarget],
    golden: &[(Vec<u8>, Vec<u8>)],
    run: &ir_fpga::SystemRun,
) -> usize {
    targets
        .iter()
        .zip(golden)
        .zip(&run.results)
        .filter(|((t, want), r)| &encode_outputs(&r.outcomes, t.start_pos()) != *want)
        .count()
}

fn main() {
    let scale = scale_from_env();
    let threads = threads_from_env();
    let targets = bench_workload(scale).targets(SWEEP_TARGETS, 0xFA01);
    let targets = &targets[..];
    let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)
        .expect("iracc fits")
        .with_telemetry(true);
    // One warmed oracle serves the clean run and all 12 fault-sweep
    // points below: the memoized entry is the fault-free datapath result,
    // and a fault that changes a run changes a copy made on write.
    let mut oracle = FunctionalOracle::new();
    oracle.precompute(targets, &FpgaParams::iracc(), threads);
    let clean_wall = system.run_with_oracle(targets, &mut oracle).wall_time_s;
    println!(
        "Resilience study ({} targets, 32 async units; fleet sweep at scale {scale})\n",
        targets.len()
    );

    // --- Sweep 1: fault rate × verification sampling rate. ---
    let golden = golden_encodings(targets);
    let fault_rates = [0.0, 1e-4, 1e-3, 1e-2];
    let verify_rates = [0.0, 0.1, 1.0];
    let mut table = Table::new(vec![
        "fault rate",
        "verify",
        "wall overhead",
        "retries",
        "fallbacks",
        "quarantined",
        "lost Mcycles",
        "silent corruptions",
    ]);
    for &rate in &fault_rates {
        for &verify in &verify_rates {
            let mut plan = FaultPlan::seeded(42, FaultRates::uniform(rate));
            let policy = ResiliencePolicy {
                verify_rate: verify,
                // The production default (1 << 26, ~0.5 s at 125 MHz) is
                // sized for full 250 bp genome targets; against the small
                // bench-profile targets it would swamp the overhead
                // column with watchdog waits. ~8 ms keeps the same
                // watchdog-to-target ratio.
                watchdog_cycles: 1 << 20,
                ..ResiliencePolicy::default()
            };
            let run = system.run_resilient_with_oracle(targets, &mut plan, &policy, &mut oracle);
            // The resilience layer publishes its tallies into the
            // telemetry registry; read them from there rather than
            // keeping a parallel set of counters in this binary.
            let tele = run.telemetry.as_ref().expect("telemetry enabled");
            table.row(vec![
                format!("{rate:.0e}"),
                format!("{verify:.1}"),
                format!("{:+.2}%", (run.wall_time_s / clean_wall - 1.0) * 100.0),
                tele.counter("resilience/retries").to_string(),
                tele.counter("resilience/fallbacks").to_string(),
                tele.counter("resilience/quarantined_units").to_string(),
                format!("{:.2}", tele.counter("resilience/lost_cycles") as f64 / 1e6),
                silent_corruptions(targets, &golden, &run).to_string(),
            ]);
        }
    }
    table.emit("resilience_study");
    println!(
        "\nverify 1.0 (the default) checks every read-back against the golden model, so\n\
         its silent-corruption column is structurally zero; lower sampling rates trade\n\
         that guarantee for less host work and let flipped bits through at high fault\n\
         rates. Fallbacks mean the software path finished what the fabric could not —\n\
         every run above completed all targets.\n"
    );

    // --- Sweep 2: spot-market interruptions on the fleet schedule. ---
    // Per-chromosome wall times for one genome on this configuration,
    // scaled up from the bench workload's relative chromosome sizes.
    let chromosomes: Vec<Chromosome> = Chromosome::autosomes().collect();
    let chromosome_s: Vec<f64> = chromosome_sweep(
        scale,
        &chromosomes,
        std::slice::from_ref(&system),
        threads,
        |run| run.wall_time_s,
    )
    .iter()
    .map(|c| c.runs[0])
    .collect();
    // The bench workload's seconds are tiny; model genome-scale jobs by
    // stretching to the paper's ~31-minute whole-genome run.
    let stretch = 31.0 * 60.0 / chromosome_s.iter().sum::<f64>();
    let stretched: Vec<f64> = chromosome_s.iter().map(|s| s * stretch).collect();
    let schedule = schedule_jobs(&stretched, 4);
    let mut spot = Table::new(vec![
        "market",
        "checkpoint",
        "interruptions",
        "makespan inflation",
        "cost inflation",
        "vs on-demand",
    ]);
    for (name, market) in [
        ("calm", SpotMarket::calm()),
        ("volatile", SpotMarket::volatile()),
    ] {
        for policy in [CheckpointPolicy::PerChromosome, CheckpointPolicy::None] {
            let mut tele = Telemetry::on();
            let run =
                simulate_spot_schedule_traced(&stretched, &schedule, &market, policy, 7, &mut tele);
            let snapshot = tele.finish().expect("telemetry on");
            spot.row(vec![
                name.to_string(),
                format!("{policy:?}"),
                snapshot.counter("fleet/interruptions").to_string(),
                format!("{:.2}×", run.makespan_inflation),
                format!("{:.2}×", run.cost_inflation),
                format!("{:.2}×", run.cost_vs_on_demand(&market)),
            ]);
        }
    }
    spot.emit("resilience_study_spot");
    println!(
        "\nspot capacity at ~0.3× the on-demand price absorbs a lot of interruption\n\
         before it stops paying for itself — but only with per-chromosome checkpoints;\n\
         restart-from-scratch burns the discount in redone work once the market churns."
    );
}
