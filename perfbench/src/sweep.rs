//! `chrom-sweep`: the Figure 9 sweep, a closed batch over all 22
//! autosomes of the bench-profile workload.
//!
//! Each chromosome runs a cold functional oracle under the serial and
//! IRACC keys, then TaskP, TaskP-Async and IRACC through
//! `run_with_oracle`, plus the GATK and ADAM models. Chromosomes run on
//! `ir_bench::parallel_sweep`. The WHD kernel inside the cold oracle does
//! nearly all of the work, so a kernel change shows here first; two
//! threads expose the straggler chromosome.

use std::collections::BTreeMap;

use ir_baselines::{adam::AdamModel, gatk::GatkModel};
use ir_bench::{gmean, parallel_sweep};
use ir_fpga::unit::{simulate_target, UnitRun};
use ir_fpga::{AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling};
use ir_workloads::ChromosomeWorkload;

use crate::common::{generator, probe, sample, Fpga, KernelSums, Key, Modeled, ProbeOut, Report};
use crate::digest::Digest;
use crate::harness::{measure, Layers, PassOut, Plan, ANALYSIS_RUN};
use crate::span::{Scope, Tracer};
use crate::Opts;

/// Fraction of the paper's per-chromosome target counts.
pub const SCALE: f64 = 5e-4;
/// Sweep worker threads.
pub const THREADS: usize = 2;
/// Set-ups per run (set-up is cheap here).
const SETUP_REPEATS: usize = 9;
/// Targets per key cross-checked against the cycle-stepped reference.
const REFERENCE_SAMPLE: usize = 6;
/// The paper's Figure 9 gmean speedup of IR ACC over GATK3.
const PAPER_SPEEDUP: f64 = 81.3;

/// Workload and systems, built once per set-up.
pub struct Setup {
    chroms: Vec<ChromosomeWorkload>,
    taskp: AcceleratedSystem,
    taskp_async: AcceleratedSystem,
    iracc: AcceleratedSystem,
    gatk: GatkModel,
    adam: AdamModel,
}

impl Setup {
    /// Targets across all chromosomes.
    pub fn targets(&self) -> usize {
        self.chroms.iter().map(|c| c.targets.len()).sum()
    }
}

/// Builds the 22-autosome workload of `seed` and the three accelerator
/// systems.
pub fn setup(seed: u64, scale: f64, scope: Scope<'_>) -> Setup {
    let chroms = scope.span("workloads.gen", 0, |_| generator(seed, scale).autosomes());
    let system = |params: FpgaParams, sched| {
        AcceleratedSystem::new(params, sched).expect("the paper's configurations fit the VU9P")
    };
    Setup {
        chroms,
        taskp: system(FpgaParams::serial(), Scheduling::Synchronous),
        taskp_async: system(FpgaParams::serial(), Scheduling::Asynchronous),
        iracc: system(FpgaParams::iracc(), Scheduling::Asynchronous),
        gatk: GatkModel::default(),
        adam: AdamModel::default().without_startup(),
    }
}

/// One chromosome's outputs.
pub struct ChromOut {
    digest: u64,
    /// Kernel sums of every target, per key in [`Key::ALL`] order.
    sums: [Vec<KernelSums>; 2],
    /// Unit runs of the reference sample, per key.
    sampled: Vec<(usize, Key, UnitRun)>,
    gatk_s: f64,
    iracc_wall_s: f64,
    fpga: Fpga,
    entries: usize,
}

/// Outputs of one pass, in chromosome order.
pub struct Payload {
    chroms: Vec<ChromOut>,
}

fn chromosome(s: &Setup, c: usize, sampled: &[usize], scope: Scope<'_>) -> ChromOut {
    scope.span("chrom", c as u64, |scope| {
        let targets = &s.chroms[c].targets;
        let mut oracle = FunctionalOracle::new();
        let mut sums: [Vec<KernelSums>; 2] = Default::default();
        let mut kept = Vec::new();
        for (k, key) in Key::ALL.into_iter().enumerate() {
            let params = key.params();
            for (i, t) in targets.iter().enumerate() {
                let run = scope.span(key.oracle_span(), i as u64, |_| {
                    oracle.simulate(t, i, &params)
                });
                sums[k].push(KernelSums::of(&run));
                if sampled.contains(&i) {
                    kept.push((i, key, run));
                }
            }
        }
        let taskp = scope.span("engine.sync", 32, |_| {
            s.taskp.run_with_oracle(targets, &mut oracle)
        });
        let taskp_async = scope.span("engine.async", 32, |_| {
            s.taskp_async.run_with_oracle(targets, &mut oracle)
        });
        let iracc = scope.span("engine.async", 32, |_| {
            s.iracc.run_with_oracle(targets, &mut oracle)
        });
        let (gatk_s, adam_s) = scope.span("baselines", 0, |_| {
            let shapes: Vec<_> = targets.iter().map(|t| t.shape()).collect();
            (
                s.gatk.run_shapes(&shapes).wall_time_s,
                s.adam.run_shapes(&shapes).wall_time_s,
            )
        });
        let mut d = Digest::default();
        d.system_run(&taskp, true);
        d.system_run(&taskp_async, false);
        d.system_run(&iracc, true);
        d.f64(gatk_s);
        d.f64(adam_s);
        let mut fpga = Fpga::default();
        fpga.add(&iracc);
        ChromOut {
            digest: d.finish(),
            sums,
            sampled: kept,
            gatk_s,
            iracc_wall_s: iracc.wall_time_s,
            fpga,
            entries: oracle.len(),
        }
    })
}

/// One timed pass over every chromosome on `threads` workers.
pub fn pass(s: &Setup, threads: usize, reference_seed: u64, scope: Scope<'_>) -> PassOut<Payload> {
    let idx: Vec<usize> = (0..s.chroms.len()).collect();
    let chroms = parallel_sweep(&idx, threads, |&c| {
        let sampled = sample(s.chroms[c].targets.len(), 1, reference_seed ^ c as u64);
        chromosome(s, c, &sampled, scope)
    });
    let mut d = Digest::default();
    chroms.iter().for_each(|c| d.u64(c.digest));
    PassOut {
        runs: 3 * s.targets() as u64,
        failed: 0,
        digest: d.finish(),
        payload: Payload { chroms },
    }
}

/// Runs the workload and reports its metrics.
pub fn run(opts: &Opts, tracer: &Tracer) -> Report {
    let plan = Plan {
        traced: opts.trace,
        seconds: opts.seconds,
        setup_repeats: SETUP_REPEATS,
        threads: THREADS,
    };
    let m = measure(
        tracer,
        plan,
        |scope| setup(opts.seed, SCALE, scope),
        |_, _| {},
        |s| 3 * s.targets() as u64,
        |s, scope| Ok(pass(s, THREADS, opts.seed, scope)),
    );
    let mut r = Report::from_measured(&m, SCALE, THREADS);
    let Some(p) = &m.payload else {
        return r;
    };
    let s = &m.setup;

    // The cycle-stepped reference on a deterministic sample.
    let mut sampled = 0u64;
    let mut mismatched = 0u64;
    'outer: for (c, out) in p.chroms.iter().enumerate() {
        for (i, key, run) in &out.sampled {
            sampled += 1;
            mismatched +=
                u64::from(simulate_target(&s.chroms[c].targets[*i], &key.params()) != *run);
            if sampled >= (REFERENCE_SAMPLE * Key::ALL.len()) as u64 {
                break 'outer;
            }
        }
    }
    r.tally.check(
        sampled,
        mismatched,
        "cross-check against unit::simulate_target",
    );

    let speedups: Vec<f64> = p.chroms.iter().map(|c| c.gatk_s / c.iracc_wall_s).collect();
    let speedup = gmean(&speedups);
    r.modeled.push(Modeled {
        name: "modeled_speedup_gmean",
        value: speedup,
        unit: "x",
        note: format!(
            "paper {PAPER_SPEEDUP} x, error {:+.1}% (reduced scale explains most of it)",
            (speedup / PAPER_SPEEDUP - 1.0) * 100.0
        ),
    });

    if opts.trace {
        let mut probed = ProbeOut::default();
        tracer.root(ANALYSIS_RUN).span("probe", 0, |scope| {
            for (c, out) in p.chroms.iter().enumerate() {
                let keys = [
                    (Key::Serial, &out.sums[0][..]),
                    (Key::Iracc, &out.sums[1][..]),
                ];
                probe(scope, &s.chroms[c].targets, &keys, &mut probed);
            }
        });
        r.tally.check(
            probed.checked,
            probed.failed,
            "probe sums equal the oracle's unit runs",
        );
        let layers = Layers::new(tracer.spans());
        let targets = s.targets() as f64;
        let entries: usize = p.chroms.iter().map(|c| c.entries).sum();
        let mut l = BTreeMap::new();
        l.insert("workloads.gen_s", layers.busy_s("workloads.gen"));
        l.insert("workloads.targets", targets);
        probed.metrics(&layers, &mut l);
        oracle_metrics(&layers, &mut l);
        // Direct lookups plus one per target for each of the three
        // engine runs; every entry created was a miss.
        l.insert("oracle.hit_frac", 1.0 - entries as f64 / (5.0 * targets));
        l.insert("oracle.entries", entries as f64);
        let sync_s = layers.busy_s("engine.sync");
        let async_s = layers.busy_s("engine.async");
        l.insert("engine.busy_s", sync_s + async_s);
        l.insert("engine.sync.us_per_target", sync_s * 1e6 / targets);
        l.insert(
            "engine.async.us_per_target",
            async_s * 1e6 / (2.0 * targets),
        );
        l.insert("baselines.busy_s", layers.busy_s("baselines"));
        let mut fpga = Fpga::default();
        for c in &p.chroms {
            fpga.wall_s += c.fpga.wall_s;
            fpga.busy_s += c.fpga.busy_s;
            fpga.dma_s += c.fpga.dma_s;
        }
        fpga.metrics(&mut l);
        r.layers = l;
        r.trace_metrics(&m, &layers);
        r.spans = layers.spans().to_vec();
    }
    r
}

/// `oracle.<key>.busy_s` and per-target p50/p99 from the per-target spans.
pub fn oracle_metrics(layers: &Layers, l: &mut BTreeMap<&'static str, f64>) {
    for key in Key::ALL {
        let (busy, p50, p99) = match key {
            Key::Serial => (
                "oracle.serial.busy_s",
                "oracle.serial.target_p50_us",
                "oracle.serial.target_p99_us",
            ),
            Key::Iracc => (
                "oracle.iracc.busy_s",
                "oracle.iracc.target_p50_us",
                "oracle.iracc.target_p99_us",
            ),
        };
        let d = layers.durations_us(key.oracle_span());
        l.insert(busy, layers.busy_s(key.oracle_span()));
        l.insert(p50, crate::stats::nearest_rank(&d, 50.0).unwrap_or(0.0));
        if crate::stats::has_ten_beyond(d.len(), 99.0) {
            l.insert(p99, crate::stats::nearest_rank(&d, 99.0).unwrap_or(0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_identical_across_runs_and_thread_counts() {
        let off = Tracer::new(false);
        let s = setup(0, 2e-5, off.root(0));
        let one = pass(&s, 1, 0, off.root(0)).digest;
        assert_eq!(one, pass(&s, 1, 0, off.root(0)).digest, "two runs");
        assert_eq!(one, pass(&s, 2, 0, off.root(0)).digest, "1 vs 2 threads");
        let other = setup(1, 2e-5, off.root(0));
        assert_ne!(one, pass(&other, 1, 0, off.root(0)).digest, "seed moves it");
    }

    #[test]
    fn traced_pass_checks_out_against_the_probe() {
        let on = Tracer::new(true);
        let s = setup(0, 2e-5, on.root(0));
        let p = pass(&s, 2, 0, on.root(1)).payload;
        let mut probed = ProbeOut::default();
        for (c, out) in p.chroms.iter().enumerate() {
            let keys = [
                (Key::Serial, &out.sums[0][..]),
                (Key::Iracc, &out.sums[1][..]),
            ];
            probe(on.root(2), &s.chroms[c].targets, &keys, &mut probed);
        }
        assert_eq!(probed.checked, 2 * s.targets() as u64);
        assert_eq!(probed.failed, 0);
        assert!(probed.pruned > 0 && probed.pruned < probed.offsets);
        for (c, out) in p.chroms.iter().enumerate() {
            for (i, key, run) in &out.sampled {
                assert_eq!(
                    simulate_target(&s.chroms[c].targets[*i], &key.params()),
                    *run
                );
            }
        }
    }
}
