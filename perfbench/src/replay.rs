//! `schedule-replay`: a closed batch on one thread that replays warmed
//! IRACC-key oracles through the event engine.
//!
//! Set-up warms the oracle of every chromosome. The timed phase replays
//! each chromosome through `run_with_oracle` at 1–32 units under all four
//! scheduling variants, then once with telemetry on and once through
//! `run_resilient_with_oracle` with a seeded fault plan. The kernel does
//! no work here, so the engine is measured alone: a kernel change must
//! predict no change on this workload.

use std::collections::BTreeMap;

use ir_fpga::unit::simulate_target;
use ir_fpga::{
    AcceleratedSystem, FaultPlan, FpgaParams, FunctionalOracle, ResiliencePolicy, Scheduling,
};
use ir_workloads::ChromosomeWorkload;

use crate::common::{generator, sample, Fpga, Key, Report};
use crate::digest::Digest;
use crate::harness::{measure, Layers, PassOut, Plan};
use crate::span::{Scope, Tracer};
use crate::sweep::oracle_metrics;
use crate::Opts;

/// Fraction of the paper's per-chromosome target counts.
pub const SCALE: f64 = 5e-4;
/// Set-ups per run (each warms every oracle).
const SETUP_REPEATS: usize = 5;
/// Unit counts of the replay grid.
const UNITS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Scheduling variants of the replay grid.
const SCHEDULES: [Scheduling; 4] = [
    Scheduling::Synchronous,
    Scheduling::SynchronousUnsorted,
    Scheduling::SynchronousByWorstCase,
    Scheduling::Asynchronous,
];
/// Replays per chromosome: the grid, the telemetry pass, the fault pass.
const REPLAYS: usize = UNITS.len() * SCHEDULES.len() + 2;
/// Warm oracle entries cross-checked against the cycle-stepped reference.
const REFERENCE_SAMPLE: usize = 6;

/// Workload, warm oracles and systems.
pub struct Setup {
    chroms: Vec<ChromosomeWorkload>,
    oracles: Vec<FunctionalOracle>,
    grid: Vec<(usize, Scheduling, AcceleratedSystem)>,
    telemetry: AcceleratedSystem,
    faulty: AcceleratedSystem,
    plans: Vec<FaultPlan>,
    policy: ResiliencePolicy,
}

impl Setup {
    fn targets(&self) -> usize {
        self.chroms.iter().map(|c| c.targets.len()).sum()
    }
}

fn setup(seed: u64, scope: Scope<'_>) -> Setup {
    let chroms = scope.span("workloads.gen", 0, |_| generator(seed, SCALE).autosomes());
    let iracc = FpgaParams::iracc();
    let oracles = chroms
        .iter()
        .map(|c| {
            let mut oracle = FunctionalOracle::new();
            for (i, t) in c.targets.iter().enumerate() {
                scope.span(Key::Iracc.oracle_span(), i as u64, |_| {
                    oracle.simulate(t, i, &iracc)
                });
            }
            oracle
        })
        .collect();
    let system = |num_units, sched| {
        AcceleratedSystem::new(FpgaParams { num_units, ..iracc }, sched)
            .expect("1-32 IRACC units fit the VU9P")
    };
    let grid = UNITS
        .iter()
        .flat_map(|&u| SCHEDULES.iter().map(move |&s| (u, s)))
        .map(|(u, s)| (u, s, system(u, s)))
        .collect();
    let plans = (0..chroms.len() as u64)
        .map(|c| FaultPlan::with_default_rates(seed.wrapping_mul(31).wrapping_add(c)))
        .collect();
    Setup {
        chroms,
        oracles,
        grid,
        telemetry: system(32, Scheduling::Asynchronous).with_telemetry(true),
        faulty: system(32, Scheduling::Asynchronous),
        plans,
        policy: ResiliencePolicy::default(),
    }
}

/// Modeled outputs kept after the timed phase.
#[derive(Default)]
pub struct Payload {
    fpga: Fpga,
    retries: u64,
    fallbacks: u64,
    /// Oracle entries after the pass (a warm replay adds none).
    entries: usize,
}

fn pass(s: &mut Setup, scope: Scope<'_>) -> PassOut<Payload> {
    let mut d = Digest::default();
    let mut payload = Payload::default();
    let mut failed = 0u64;
    for c in 0..s.chroms.len() {
        scope.span("chrom", c as u64, |scope| {
            let targets = &s.chroms[c].targets;
            let oracle = &mut s.oracles[c];
            let mut clean = None;
            for (units, sched, system) in &s.grid {
                let name = if *sched == Scheduling::Asynchronous {
                    "engine.async"
                } else {
                    "engine.sync"
                };
                let run = scope.span(name, *units as u64, |_| {
                    system.run_with_oracle(targets, oracle)
                });
                d.system_run(&run, false);
                if *units == 32 && *sched == Scheduling::Asynchronous {
                    payload.fpga.add(&run);
                    clean = Some(run);
                }
            }
            let run = scope.span("engine.telemetry", 32, |_| {
                s.telemetry.run_with_oracle(targets, oracle)
            });
            d.system_run(&run, false);
            let mut plan = s.plans[c].clone();
            let run = scope.span("resilience", 32, |_| {
                s.faulty
                    .run_resilient_with_oracle(targets, &mut plan, &s.policy, oracle)
            });
            d.system_run(&run, false);
            // Recovery must never change a functional result.
            let clean = clean.expect("the grid holds the 32-unit async config");
            failed += run
                .results
                .iter()
                .zip(&clean.results)
                .filter(|(a, b)| (a.best, a.realigned_count()) != (b.best, b.realigned_count()))
                .count() as u64;
            if let Some(rep) = &run.resilience {
                payload.retries += rep.retries;
                payload.fallbacks += rep.fallbacks;
            }
            payload.entries += oracle.len();
        });
    }
    PassOut {
        runs: (REPLAYS * s.targets()) as u64,
        failed,
        digest: d.finish(),
        payload,
    }
}

/// Runs the workload and reports its metrics.
pub fn run(opts: &Opts, tracer: &Tracer) -> Report {
    let plan = Plan {
        traced: opts.trace,
        seconds: opts.seconds,
        setup_repeats: SETUP_REPEATS,
        threads: 1,
    };
    let mut m = measure(
        tracer,
        plan,
        |scope| setup(opts.seed, scope),
        |_, _| {},
        |s| (REPLAYS * s.targets()) as u64,
        |s, scope| Ok(pass(s, scope)),
    );
    let mut r = Report::from_measured(&m, SCALE, 1);
    let Some(p) = m.payload.take() else {
        return r;
    };
    let s = &mut m.setup;
    let targets = s.targets();
    r.tally.check(
        1,
        u64::from(p.entries != targets),
        "warm replay adds no oracle entries",
    );

    // Warm entries against the cycle-stepped reference.
    let iracc = FpgaParams::iracc();
    let flat: Vec<(usize, usize)> = s
        .chroms
        .iter()
        .enumerate()
        .flat_map(|(c, w)| (0..w.targets.len()).map(move |i| (c, i)))
        .collect();
    let picks = sample(flat.len(), REFERENCE_SAMPLE, opts.seed);
    let mismatched = picks
        .iter()
        .filter(|&&k| {
            let (c, i) = flat[k];
            let t = &s.chroms[c].targets[i];
            s.oracles[c].simulate(t, i, &iracc) != simulate_target(t, &iracc)
        })
        .count() as u64;
    r.tally.check(
        picks.len() as u64,
        mismatched,
        "cross-check against unit::simulate_target",
    );

    if opts.trace {
        let layers = Layers::new(tracer.spans());
        let t = targets as f64;
        let mut l = BTreeMap::new();
        l.insert("workloads.gen_s", layers.busy_s("workloads.gen"));
        l.insert("workloads.targets", t);
        oracle_metrics(&layers, &mut l);
        l.insert("oracle.hit_frac", 1.0);
        l.insert("oracle.entries", p.entries as f64);
        let sync_s = layers.busy_s("engine.sync");
        let async_s = layers.busy_s("engine.async");
        let telemetry_s = layers.busy_s("engine.telemetry");
        let resilience_s = layers.busy_s("resilience");
        let sync_runs = (UNITS.len() * (SCHEDULES.len() - 1)) as f64 * t;
        l.insert("engine.busy_s", sync_s + async_s + telemetry_s);
        l.insert("engine.sync.us_per_target", sync_s * 1e6 / sync_runs);
        l.insert(
            "engine.async.us_per_target",
            async_s * 1e6 / (UNITS.len() as f64 * t),
        );
        let async32 = layers.busy_where("engine.async", |units| units == 32);
        if async32 > 0.0 {
            l.insert("engine.telemetry_overhead", telemetry_s / async32 - 1.0);
        }
        l.insert("resilience.us_per_target", resilience_s * 1e6 / t);
        l.insert("resilience.retries", p.retries as f64);
        l.insert("resilience.fallbacks", p.fallbacks as f64);
        p.fpga.metrics(&mut l);
        r.layers = l;
        r.trace_metrics(&m, &layers);
        r.spans = layers.spans().to_vec();
    }
    r
}
