//! The scheduler core: the host loop of paper §V-A ("configure and start
//! the accelerators one unit at a time … wait for responses and configure
//! and start the units that are finished with the previous task") as two
//! plain functions, one per scheduling family. Every
//! [`AcceleratedSystem`] run takes this path.
//!
//! The clock jumps between state changes instead of ticking, and the
//! datapath is evaluated through the jump-to-outcome kernel
//! ([`crate::unit::simulate_target_fast`]) or memoized wholesale through a
//! [`FunctionalOracle`].
//!
//! - **Synchronous** (Figure 7-top) is a nested loop with no queue: per
//!   batch sized to the healthy units, run the DMA chain, issue each slot
//!   in order, flush.
//! - **Asynchronous** (Figure 7-bottom) plans every DMA chain in dispatch
//!   order first, then pops unit-free instants from one [`EventQueue`] and
//!   hands each freed unit the next target.
//!
//! # Ordering contract
//!
//! The modeled output depends on the order in which simultaneous events
//! are handled and on how times are rounded. Golden digests of whole runs
//! (`tests/event_parity.rs`) and of telemetry snapshots
//! (`tests/telemetry.rs`) pin the result of these rules bit for bit:
//!
//! - One dispatch (configure, evaluate, resolve faults, record) is a
//!   function call, so it completes before the next unit frees.
//! - Among units freeing at the same instant, the queue priority — the
//!   unit index — hands the next target to the lowest unit first.
//! - The asynchronous path quantizes unit-free times to integer
//!   picoseconds (`from_ps(to_ps(end))`), so every `free` the scheduler
//!   reads is that rounded value.

use std::cmp::Reverse;
use std::sync::Arc;

use ir_genome::RealignmentTarget;
use ir_sim::{EventQueue, SimTime};
use ir_telemetry::{SpanKind, Track};

use crate::oracle::FunctionalOracle;
use crate::system::{
    timeline_from_snapshot, AcceleratedSystem, DispatchRecord, FaultState, Scheduling, SystemRun,
    TeleAcc,
};
use crate::unit::{simulate_target_fast, UnitRun};

/// Integer-picosecond quantization used by the asynchronous unit-free
/// clock (see the ordering contract above).
fn to_ps(s: f64) -> u64 {
    (s * 1e12) as u64
}

fn from_ps(ps: u64) -> f64 {
    ps as f64 / 1e12
}

/// The run-wide ledgers both schedulers accumulate into; folded into a
/// [`SystemRun`] at the end of the run.
struct Ledger {
    acc: TeleAcc,
    results: Vec<Option<Arc<UnitRun>>>,
    dma_busy: f64,
    command_s: f64,
    compute_cycles: u64,
    comparisons: u64,
    unit_busy: Vec<f64>,
}

impl Ledger {
    fn new(sys: &AcceleratedSystem, num_targets: usize) -> Self {
        let p = sys.params();
        Ledger {
            acc: TeleAcc::new(sys.telemetry_enabled(), p.num_units, p.cycle_time_s()),
            results: (0..num_targets).map(|_| None).collect(),
            dma_busy: 0.0,
            command_s: 0.0,
            compute_cycles: 0,
            comparisons: 0,
            unit_busy: vec![0.0; p.num_units],
        }
    }

    /// Books one target's compute on `unit` and keeps its result.
    fn record_run(&mut self, unit: usize, t: usize, busy: f64, run: Arc<UnitRun>) {
        self.unit_busy[unit] += busy;
        self.compute_cycles += run.cycles.total();
        self.comparisons += run.comparisons;
        self.results[t] = Some(run);
    }

    fn into_run(self, wall_s: f64, num_targets: usize) -> SystemRun {
        let snapshot = self
            .acc
            .finalize(wall_s, self.command_s, self.dma_busy, num_targets);
        SystemRun {
            wall_time_s: wall_s,
            results: self
                .results
                .into_iter()
                .map(|r| r.expect("every target ran"))
                .collect(),
            dma_busy_s: self.dma_busy,
            command_s: self.command_s,
            compute_cycles: self.compute_cycles,
            comparisons: self.comparisons,
            unit_busy_s: self.unit_busy,
            timeline: snapshot
                .as_ref()
                .map(timeline_from_snapshot)
                .unwrap_or_default(),
            resilience: None,
            telemetry: snapshot,
        }
    }
}

/// Evaluates one target's functional result, through the shared oracle
/// when one was provided. An oracle hit shares the cached entry.
fn evaluate(
    oracle: &mut Option<&mut FunctionalOracle>,
    target: &RealignmentTarget,
    index: usize,
    sys: &AcceleratedSystem,
) -> Arc<UnitRun> {
    match oracle.as_deref_mut() {
        Some(o) => o.shared(target, index, sys.params()),
        None => Arc::new(simulate_target_fast(target, sys.params())),
    }
}

/// The order targets are dispatched in. The asynchronous scheduler and
/// [`Scheduling::SynchronousByWorstCase`] take the largest worst-case
/// work first; [`Scheduling::Synchronous`] sorts by read and consensus
/// counts (the paper's mitigation); [`Scheduling::SynchronousUnsorted`]
/// keeps submission order. Both sorts are stable, so tied targets keep
/// index order.
fn dispatch_order(scheduling: Scheduling, targets: &[RealignmentTarget]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..targets.len()).collect();
    match scheduling {
        Scheduling::SynchronousUnsorted => {}
        Scheduling::Synchronous => {
            order.sort_by_key(|&t| Reverse((targets[t].num_reads(), targets[t].num_consensuses())))
        }
        Scheduling::SynchronousByWorstCase | Scheduling::Asynchronous => {
            order.sort_by_key(|&t| Reverse(targets[t].worst_case_comparisons()))
        }
    }
    order
}

/// Runs `targets` through the scheduler core, with telemetry as `sys` has
/// it enabled. `fault` threads the resilience state machine through every
/// dispatch; `oracle` memoizes functional results across runs of the same
/// workload.
pub(crate) fn run(
    sys: &AcceleratedSystem,
    targets: &[RealignmentTarget],
    fault: &mut FaultState<'_>,
    oracle: Option<&mut FunctionalOracle>,
) -> SystemRun {
    let order = dispatch_order(sys.scheduling(), targets);
    match sys.scheduling() {
        Scheduling::Asynchronous => run_async(sys, targets, &order, fault, oracle),
        _ => run_sync(sys, targets, &order, fault, oracle),
    }
}

/// The synchronous-parallel scheduler (Figure 7-top): transfer a whole
/// batch, launch every healthy unit, wait for the last, flush, repeat.
fn run_sync(
    sys: &AcceleratedSystem,
    targets: &[RealignmentTarget],
    order: &[usize],
    fault: &mut FaultState<'_>,
    mut oracle: Option<&mut FunctionalOracle>,
) -> SystemRun {
    let p = sys.params();
    let mut ledger = Ledger::new(sys, targets.len());
    // The host's clock: batch boundaries.
    let mut now_s = 0.0;
    let mut rest = order;
    while !rest.is_empty() {
        let units: Vec<usize> = (0..p.num_units)
            .filter(|&u| fault.recovery.healthy(u))
            .collect();
        let (batch, tail) = rest.split_at(rest.len().min(units.len()));
        rest = tail;

        // The batch's DMA chain: every member stalls behind all of it.
        let sizes = batch.iter().map(|&t| targets[t].input_bytes());
        let dma_s = sys.dma_params().batch_transfer_time_s(sizes.clone());
        ledger
            .acc
            .record_chain(batch, sizes.sum(), now_s, now_s + dma_s);
        ledger.acc.tele.add("sched", "batches", 1);
        ledger.acc.record_prefetch_depth(batch.len() as u64);
        now_s += dma_s;
        ledger.dma_busy += dma_s;

        // Host-serial command issue, one slot per healthy unit.
        let mut batch_end = now_s;
        for (&t, &unit) in batch.iter().zip(&units) {
            let target = &targets[t];
            let cfg = sys.config_time_s(target);
            ledger.command_s += cfg;
            let mut run = evaluate(&mut oracle, target, t, sys);
            let (extra, newly_quarantined) = fault.resolve(target, &mut run, unit);
            let busy = (run.cycles.total() + extra) as f64 * p.cycle_time_s();
            let start = now_s + cfg;
            let end = start + busy;
            if newly_quarantined {
                ledger.acc.record_quarantine(unit, end);
            }
            batch_end = batch_end.max(end);
            if ledger.acc.enabled() {
                ledger.acc.record_dispatch(
                    p,
                    DispatchRecord {
                        unit,
                        target_index: t,
                        start_s: start,
                        busy_s: busy,
                        busy_cycles: run.cycles.total() + extra,
                        stall_s: dma_s + cfg,
                        dma_wait_s: dma_s,
                        active_units: batch.len() as u64,
                        run: &run,
                        target,
                    },
                );
            }
            ledger.record_run(unit, t, busy, run);
        }

        // The batch barrier: the last unit to free ends the batch, then the
        // whole fabric flushes before the next one starts.
        let flush = p.response_latency_s * batch.len() as f64;
        ledger.command_s += flush;
        if ledger.acc.enabled() {
            for &unit in &units[..batch.len()] {
                ledger.acc.stall_s[unit] += flush;
            }
            ledger.acc.tele.span(
                Track::Host,
                SpanKind::Stall,
                "batch flush",
                None,
                batch_end,
                batch_end + flush,
            );
        }
        now_s = batch_end + flush;
    }
    ledger.into_run(now_s, targets.len())
}

/// The asynchronous scheduler (paper §IV, Figure 7-bottom): DMA chains are
/// planned ahead in dispatch order; each unit receives its next target the
/// instant it reports free.
fn run_async(
    sys: &AcceleratedSystem,
    targets: &[RealignmentTarget],
    order: &[usize],
    fault: &mut FaultState<'_>,
    mut oracle: Option<&mut FunctionalOracle>,
) -> SystemRun {
    let p = sys.params();
    let mut ledger = Ledger::new(sys, targets.len());

    // Every chain carries one prefetch group of up to `num_units` targets
    // and occupies the single descriptor queue's next free slot.
    let mut dma_done = vec![0.0; targets.len()];
    let mut dma_free = 0.0;
    for chain in order.chunks(p.num_units.max(1)) {
        let sizes = chain.iter().map(|&t| targets[t].input_bytes());
        let dt = sys.dma_params().batch_transfer_time_s(sizes.clone());
        let start = dma_free;
        dma_free = start + dt;
        ledger.dma_busy += dt;
        for &t in chain {
            dma_done[t] = dma_free;
        }
        ledger.acc.record_chain(chain, sizes.sum(), start, dma_free);
    }

    // Unit-free instants, keyed by unit index among equal times. Every
    // unit is born free.
    let mut free_units = EventQueue::new();
    for unit in 0..p.num_units {
        free_units.push(SimTime::ZERO, unit as u64, unit);
    }
    // Per-unit compute-end times and the prefetch pointer — telemetry
    // observables only.
    let mut unit_end_s = vec![0.0; p.num_units];
    let mut arrived = 0;
    let mut wall = 0.0f64;
    for (dispatch_idx, &t) in order.iter().enumerate() {
        // Quarantine always spares the last healthy unit, so one is queued.
        let next = free_units.pop().expect("a healthy unit remains");
        let (unit, free) = (next.msg, next.time.seconds());
        let target = &targets[t];
        let cfg = sys.config_time_s(target);
        ledger.command_s += cfg;
        let mut run = evaluate(&mut oracle, target, t, sys);
        let (extra, newly_quarantined) = fault.resolve(target, &mut run, unit);
        let busy = (run.cycles.total() + extra) as f64 * p.cycle_time_s();
        let start = free.max(dma_done[t]) + cfg;
        let dma_wait = (dma_done[t] - free).max(0.0);
        let end = start + busy + p.response_latency_s;
        ledger.command_s += p.response_latency_s;
        if newly_quarantined {
            ledger.acc.record_quarantine(unit, end);
        }
        wall = wall.max(end);
        if ledger.acc.enabled() {
            let active_units = 1 + unit_end_s
                .iter()
                .enumerate()
                .filter(|&(u, &e)| u != unit && e > start)
                .count() as u64;
            unit_end_s[unit] = start + busy;
            while arrived < order.len() && dma_done[order[arrived]] <= start {
                arrived += 1;
            }
            let prefetch_depth = arrived.saturating_sub(dispatch_idx + 1) as u64;
            ledger.acc.record_prefetch_depth(prefetch_depth);
            ledger.acc.record_dispatch(
                p,
                DispatchRecord {
                    unit,
                    target_index: t,
                    start_s: start,
                    busy_s: busy,
                    busy_cycles: run.cycles.total() + extra,
                    stall_s: dma_wait + cfg + p.response_latency_s,
                    dma_wait_s: dma_wait,
                    active_units,
                    run: &run,
                    target,
                },
            );
        }
        ledger.record_run(unit, t, busy, run);
        if fault.recovery.healthy(unit) {
            free_units.push(
                SimTime::from_seconds(from_ps(to_ps(end))),
                unit as u64,
                unit,
            );
        }
    }
    ledger.into_run(wall, targets.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FpgaParams;
    use ir_genome::{Qual, Read, RealignmentTarget};

    /// A small workload with uneven shapes so scheduling order matters.
    fn workload(n: usize) -> Vec<RealignmentTarget> {
        (0..n)
            .map(|i| {
                let mut b = RealignmentTarget::builder(100 + i as u64)
                    .reference("CCTTAGACCTTAGA".parse().unwrap());
                for c in 0..(1 + i % 3) {
                    let cons = match c {
                        0 => "ACCTGAACCTGAA",
                        1 => "ACCTGTACCTGTA",
                        _ => "ACCTGCACCTGCA",
                    };
                    b = b.consensus(cons.parse().unwrap());
                }
                for r in 0..(1 + (i * 2) % 5) {
                    let bases = ["TGAA", "CTGAAC", "ACCTG", "GAACC", "TTAGA"][r % 5];
                    let quals: Vec<u8> = (0..bases.len() as u8).map(|q| 10 + 5 * q).collect();
                    b = b.read(
                        Read::new(
                            format!("r{i}_{r}"),
                            bases.parse().unwrap(),
                            Qual::from_raw_scores(&quals).unwrap(),
                            (r % 3) as u64,
                        )
                        .unwrap(),
                    );
                }
                b.build().unwrap()
            })
            .collect()
    }

    fn assert_runs_bitwise_equal(a: &SystemRun, b: &SystemRun) {
        assert_eq!(a.wall_time_s.to_bits(), b.wall_time_s.to_bits(), "wall");
        assert_eq!(a.dma_busy_s.to_bits(), b.dma_busy_s.to_bits(), "dma");
        assert_eq!(a.command_s.to_bits(), b.command_s.to_bits(), "command");
        assert_eq!(a.compute_cycles, b.compute_cycles);
        assert_eq!(a.comparisons, b.comparisons);
        assert_eq!(a.unit_busy_s.len(), b.unit_busy_s.len());
        for (x, y) in a.unit_busy_s.iter().zip(&b.unit_busy_s) {
            assert_eq!(x.to_bits(), y.to_bits(), "unit busy");
        }
        assert_eq!(a.results, b.results);
        assert_eq!(a.timeline.len(), b.timeline.len());
        for (x, y) in a.timeline.iter().zip(&b.timeline) {
            assert_eq!(x, y, "timeline event");
        }
        match (&a.telemetry, &b.telemetry) {
            (None, None) => {}
            (Some(x), Some(y)) => assert!(x.bitwise_eq(y), "telemetry snapshots differ"),
            _ => panic!("one run has telemetry, the other not"),
        }
    }

    #[test]
    fn empty_workload_halts_cleanly() {
        for scheduling in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let sys = AcceleratedSystem::new(FpgaParams::iracc(), scheduling)
                .unwrap()
                .with_telemetry(true);
            let run = sys.run(&[]);
            assert_eq!(run.wall_time_s, 0.0);
            assert!(run.results.is_empty());
        }
    }

    #[test]
    fn oracle_backed_run_matches_plain_engine_run() {
        let targets = workload(9);
        let sys = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).unwrap();
        let mut oracle = FunctionalOracle::new();
        let first = sys.run_with_oracle(&targets, &mut oracle);
        let plain = sys.run(&targets);
        assert_runs_bitwise_equal(&first, &plain);
        assert!(!oracle.is_empty());
        // Replay under another configuration: cache entries are reused and
        // the outputs still match that configuration's plain run.
        let sync = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Synchronous).unwrap();
        let replay = sync.run_with_oracle(&targets, &mut oracle);
        assert_runs_bitwise_equal(&replay, &sync.run(&targets));
    }

    #[test]
    fn warm_replay_shares_the_oracle_entries() {
        let targets = workload(9);
        let params = FpgaParams::iracc();
        let mut oracle = FunctionalOracle::new();
        oracle.precompute(&targets, &params, 1);
        for scheduling in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let sys = AcceleratedSystem::new(params, scheduling).unwrap();
            let run = sys.run_with_oracle(&targets, &mut oracle);
            for (i, (run, target)) in run.results.iter().zip(&targets).enumerate() {
                let entry = oracle.shared(target, i, &params);
                assert!(Arc::ptr_eq(run, &entry), "{scheduling:?} copied target {i}");
            }
        }
    }

    #[test]
    fn faults_never_write_through_to_the_oracle() {
        use crate::driver::ResiliencePolicy;
        use crate::fault::{FaultPlan, FaultRates};
        let targets = workload(12);
        let params = FpgaParams {
            num_units: 4,
            ..FpgaParams::iracc()
        };
        let cold: Vec<UnitRun> = targets
            .iter()
            .map(|t| simulate_target_fast(t, &params))
            .collect();
        // Every read-back flips a bit and nothing is verified, so the
        // flips that still decode ship corrupt outcomes.
        let flip = (
            FaultRates {
                output_bit_flip: 1.0,
                ..FaultRates::none()
            },
            ResiliencePolicy {
                verify_rate: 0.0,
                ..ResiliencePolicy::default()
            },
        );
        // Every attempt hangs, so every target falls back to software.
        let hang = (
            FaultRates {
                unit_hang: 1.0,
                ..FaultRates::none()
            },
            ResiliencePolicy::default(),
        );
        for scheduling in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let sys = AcceleratedSystem::new(params, scheduling).unwrap();
            let mut oracle = FunctionalOracle::new();
            let clean = sys.run_with_oracle(&targets, &mut oracle);
            for (rates, policy) in [flip, hang] {
                let mut plan = FaultPlan::seeded(3, rates);
                let run = sys.run_resilient_with_oracle(&targets, &mut plan, &policy, &mut oracle);
                let changed = run
                    .results
                    .iter()
                    .zip(&cold)
                    .any(|(got, want)| **got != *want);
                assert!(
                    changed,
                    "{scheduling:?}: {:?} changed no result",
                    run.resilience
                );
                for (i, (target, want)) in targets.iter().zip(&cold).enumerate() {
                    assert_eq!(&oracle.simulate(target, i, &params), want, "entry {i}");
                }
                let replay = sys.run_with_oracle(&targets, &mut oracle);
                assert_runs_bitwise_equal(&replay, &clean);
            }
        }
    }

    #[test]
    fn worst_case_orders_keep_tied_targets_in_index_order() {
        // Shapes repeat with period 15, so each worst-case key is shared
        // by 20 targets: enough for an unstable sort to reorder ties.
        let targets = workload(300);
        let key = |t: usize| targets[t].shape().worst_case_comparisons();
        for scheduling in [Scheduling::Asynchronous, Scheduling::SynchronousByWorstCase] {
            let order = dispatch_order(scheduling, &targets);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..targets.len()).collect::<Vec<_>>());
            assert!(order.windows(2).any(|w| key(w[0]) == key(w[1])));
            for w in order.windows(2) {
                let (a, b) = (w[0], w[1]);
                assert!(key(a) > key(b) || (key(a) == key(b) && a < b), "{order:?}");
            }
        }
    }
}
