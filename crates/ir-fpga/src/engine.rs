//! The event-driven simulation core: the system of `system.rs` recast as
//! [`ir_sim`] components exchanging messages on a discrete-event queue.
//!
//! The legacy schedulers ([`SimBackend::LegacyStepper`]) walk targets in
//! host loops and call the cycle-stepping HDC kernel per pair. This module
//! reproduces the *same arithmetic in the same order* — every `f64`
//! accumulation, every telemetry call — but as reactions to events, with
//! two structural wins:
//!
//! - The clock jumps between state changes instead of ticking, so the
//!   datapath can be evaluated through the jump-to-outcome kernel
//!   ([`crate::unit::simulate_target_fast`]) or memoized wholesale through
//!   a [`FunctionalOracle`].
//! - Units, the DMA engine and the watchdog are separate [`Component`]s
//!   addressed by index, which is how the hardware is actually wired
//!   (Figure 4's 32:1 arbiter fabric) and what lets the fleet simulator
//!   reuse the same engine for spot-interruption events.
//!
//! # Equivalence with the legacy stepper
//!
//! `tests/event_parity.rs` asserts bitwise-identical [`SystemRun`]s. The
//! load-bearing ordering facts:
//!
//! - Control messages ([`Ev::Resolve`]/[`Ev::Resolved`]/DMA replies) post
//!   at priority 0; unit free/tick events post at priority
//!   `UNIT_BASE + unit`. At any timestamp every in-flight dispatch
//!   round-trip therefore completes before the next unit frees — the
//!   round-trip is atomic, exactly like one iteration of the legacy loop.
//! - Among units freeing at the same instant, priority `UNIT_BASE + unit`
//!   reproduces the legacy min-heap's `(time, unit_index)` tie-break.
//! - The asynchronous path quantizes unit-free times to integer
//!   picoseconds (`from_ps(to_ps(end))`), the exact conversion the legacy
//!   heap applied, so every `free` the scheduler reads is bit-identical.

use std::cmp::Reverse;
use std::sync::Arc;

use ir_genome::RealignmentTarget;
use ir_sim::{Component, Ctx, Engine, Port, SimEvent, SimTime};
use ir_telemetry::{SpanKind, Track};

use crate::dma::DmaParams;
use crate::oracle::FunctionalOracle;
#[cfg(doc)]
use crate::system::SimBackend;
use crate::system::{
    timeline_from_snapshot, AcceleratedSystem, DispatchRecord, FaultState, Scheduling, SystemRun,
    TeleAcc,
};
use crate::unit::{simulate_target_fast, UnitRun};

/// Component index of the scheduler.
const SCHED: usize = 0;
/// Component index of the DMA engine.
const DMA: usize = 1;
/// Component index of the watchdog/resilience layer.
const WATCHDOG: usize = 2;
/// Component index of IR unit `u` is `UNIT_BASE + u`.
const UNIT_BASE: usize = 3;

/// Integer-picosecond quantization used by the asynchronous unit-free
/// clock — the same conversion the legacy min-heap applied at its edges.
fn to_ps(s: f64) -> u64 {
    (s * 1e12) as u64
}

fn from_ps(ps: u64) -> f64 {
    ps as f64 / 1e12
}

/// Messages exchanged between the system's components.
#[derive(Debug)]
pub(crate) enum Ev {
    /// Self-wake (engine-posted when a component returns `Some(t)`).
    Tick,
    /// Scheduler → DMA (async): append one descriptor chain to the DMA
    /// engine's queue; the transfer occupies the engine's next free slot.
    PlanChain {
        targets: Vec<usize>,
        sizes: Vec<u64>,
    },
    /// DMA → scheduler (async): a planned chain's occupancy window.
    ChainPlanned {
        targets: Vec<usize>,
        bytes: u64,
        start_s: f64,
        end_s: f64,
        dt_s: f64,
    },
    /// Scheduler → DMA (sync): transfer one batch starting now; the reply
    /// arrives when the chain completes.
    StartChain {
        targets: Vec<usize>,
        sizes: Vec<u64>,
    },
    /// DMA → scheduler (sync): the batch transfer finished.
    ChainDone {
        targets: Vec<usize>,
        bytes: u64,
        start_s: f64,
        end_s: f64,
        dt_s: f64,
    },
    /// Scheduler → watchdog: a target's functional result is ready; play
    /// the recovery state machine over it.
    Resolve {
        target: usize,
        unit: usize,
        run: Arc<UnitRun>,
    },
    /// Watchdog → scheduler: recovery resolved, with the extra cycles the
    /// unit burned and the unit's health transitions.
    Resolved {
        target: usize,
        unit: usize,
        run: Arc<UnitRun>,
        extra: u64,
        newly_quarantined: bool,
        still_healthy: bool,
    },
    /// Scheduler → unit: you are busy until `wake_s`; report back then.
    Dispatch { wake_s: f64 },
    /// Unit → scheduler: this unit is free for its next target.
    UnitFree { unit: usize },
}

impl SimEvent for Ev {
    fn tick() -> Self {
        Ev::Tick
    }
}

/// The PCIe DMA engine as a component: owns the single descriptor queue,
/// so chain start times serialize through `free_s`.
struct DmaComp {
    dma: DmaParams,
    free_s: f64,
}

impl Component for DmaComp {
    type Event = Ev;

    fn wake(&mut self, now: SimTime, msg: Ev, ctx: &mut Ctx<Ev>) -> Option<SimTime> {
        match msg {
            Ev::PlanChain { targets, sizes } => {
                let bytes: u64 = sizes.iter().sum();
                let dt = self.dma.batch_transfer_time_s(sizes.iter().copied());
                let start = self.free_s;
                self.free_s = start + dt;
                ctx.post(
                    SCHED,
                    now,
                    0,
                    Ev::ChainPlanned {
                        targets,
                        bytes,
                        start_s: start,
                        end_s: self.free_s,
                        dt_s: dt,
                    },
                );
            }
            Ev::StartChain { targets, sizes } => {
                let bytes: u64 = sizes.iter().sum();
                let dt = self.dma.batch_transfer_time_s(sizes.iter().copied());
                let start = now.seconds();
                ctx.post(
                    SCHED,
                    SimTime::from_seconds(start + dt),
                    0,
                    Ev::ChainDone {
                        targets,
                        bytes,
                        start_s: start,
                        end_s: start + dt,
                        dt_s: dt,
                    },
                );
            }
            _ => unreachable!("DMA engine received a non-DMA message"),
        }
        None
    }
}

/// The watchdog/resilience layer as a component: the single owner of the
/// [`FaultState`], so recovery decisions serialize through it.
struct WatchdogComp<'t, 'f, 'p> {
    targets: &'t [RealignmentTarget],
    fault: Option<&'f mut FaultState<'p>>,
}

impl Component for WatchdogComp<'_, '_, '_> {
    type Event = Ev;

    fn wake(&mut self, now: SimTime, msg: Ev, ctx: &mut Ctx<Ev>) -> Option<SimTime> {
        let Ev::Resolve {
            target,
            unit,
            mut run,
        } = msg
        else {
            unreachable!("watchdog received a non-resolve message")
        };
        let (extra, newly_quarantined, still_healthy) = match self.fault.as_deref_mut() {
            Some(fs) => {
                let was = fs.quarantined[unit];
                let extra = fs.resolve(&self.targets[target], &mut run, unit);
                let quarantined = fs.quarantined[unit];
                (extra, !was && quarantined, !quarantined)
            }
            None => (0, false, true),
        };
        ctx.post(
            SCHED,
            now,
            0,
            Ev::Resolved {
                target,
                unit,
                run,
                extra,
                newly_quarantined,
                still_healthy,
            },
        );
        None
    }
}

/// One IR unit as a component: dispatched with a busy-until time, it
/// self-wakes then and reports free. The free report carries the unit's
/// own index as its tie-break priority, reproducing the legacy heap's
/// unit-index ordering among simultaneous completions.
struct UnitComp {
    id: usize,
}

impl Component for UnitComp {
    type Event = Ev;

    fn wake(&mut self, now: SimTime, msg: Ev, ctx: &mut Ctx<Ev>) -> Option<SimTime> {
        match msg {
            Ev::Dispatch { wake_s } => Some(SimTime::from_seconds(wake_s)),
            Ev::Tick => {
                ctx.post(
                    SCHED,
                    now,
                    (UNIT_BASE + self.id) as u64,
                    Ev::UnitFree { unit: self.id },
                );
                None
            }
            _ => unreachable!("unit received a scheduler-only message"),
        }
    }
}

/// The run-wide ledgers both schedulers accumulate into; folded into a
/// [`SystemRun`] identically to the legacy epilogue.
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
    fn new(telemetry: bool, units: usize, cycle_s: f64, num_targets: usize) -> Self {
        Ledger {
            acc: TeleAcc::new(telemetry, units, cycle_s),
            results: (0..num_targets).map(|_| None).collect(),
            dma_busy: 0.0,
            command_s: 0.0,
            compute_cycles: 0,
            comparisons: 0,
            unit_busy: vec![0.0; units],
        }
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

/// The asynchronous scheduler as a component (paper §IV, Figure 7-bottom):
/// DMA chains are planned ahead in dispatch order; each unit receives its
/// next target the instant it reports free.
struct AsyncSched<'s, 't, 'o> {
    sys: &'s AcceleratedSystem,
    targets: &'t [RealignmentTarget],
    oracle: Option<&'o mut FunctionalOracle>,
    ledger: Ledger,
    /// Dispatch order: largest worst-case work first.
    order: Vec<usize>,
    dma_done: Vec<f64>,
    chunk_cursor: usize,
    dispatch_idx: usize,
    /// Per-unit compute-end times and the prefetch pointer — telemetry
    /// observables only, exactly as in the legacy scheduler.
    unit_end_s: Vec<f64>,
    arrived: usize,
    wall: f64,
    dma_port: Port,
    watchdog_port: Port,
}

impl<'s, 't, 'o> AsyncSched<'s, 't, 'o> {
    fn new(
        sys: &'s AcceleratedSystem,
        targets: &'t [RealignmentTarget],
        telemetry: bool,
        oracle: Option<&'o mut FunctionalOracle>,
    ) -> Self {
        let units = sys.params().num_units;
        let mut order: Vec<usize> = (0..targets.len()).collect();
        order.sort_by_cached_key(|&t| Reverse(targets[t].shape().worst_case_comparisons()));
        AsyncSched {
            sys,
            targets,
            oracle,
            ledger: Ledger::new(telemetry, units, sys.params().cycle_time_s(), targets.len()),
            order,
            dma_done: vec![0.0; targets.len()],
            chunk_cursor: 0,
            dispatch_idx: 0,
            unit_end_s: vec![0.0; units],
            arrived: 0,
            wall: 0.0,
            dma_port: Port::new(DMA, 0),
            watchdog_port: Port::new(WATCHDOG, 0),
        }
    }

    /// Plans the next descriptor chain of up to `num_units` targets in
    /// dispatch order (the prefetch groups of the legacy scheduler).
    fn plan_next_chain(&mut self, now: SimTime, ctx: &mut Ctx<Ev>) {
        if self.chunk_cursor >= self.order.len() {
            return;
        }
        let units = self.sys.params().num_units.max(1);
        let end = self.order.len().min(self.chunk_cursor + units);
        let chunk: Vec<usize> = self.order[self.chunk_cursor..end].to_vec();
        self.chunk_cursor = end;
        let sizes: Vec<u64> = chunk
            .iter()
            .map(|&t| self.targets[t].input_bytes())
            .collect();
        self.dma_port.send(
            ctx,
            now,
            Ev::PlanChain {
                targets: chunk,
                sizes,
            },
        );
    }

    fn into_run(self, num_targets: usize) -> SystemRun {
        self.ledger.into_run(self.wall, num_targets)
    }
}

impl Component for AsyncSched<'_, '_, '_> {
    type Event = Ev;

    fn wake(&mut self, now: SimTime, msg: Ev, ctx: &mut Ctx<Ev>) -> Option<SimTime> {
        match msg {
            // Kickoff: every unit is born free; DMA planning runs ahead.
            Ev::Tick => {
                if self.order.is_empty() {
                    ctx.halt();
                    return None;
                }
                for u in 0..self.sys.params().num_units {
                    ctx.post(
                        UNIT_BASE + u,
                        SimTime::ZERO,
                        (UNIT_BASE + u) as u64,
                        Ev::Dispatch { wake_s: 0.0 },
                    );
                }
                self.plan_next_chain(now, ctx);
            }
            Ev::ChainPlanned {
                targets,
                bytes,
                start_s,
                end_s,
                dt_s,
            } => {
                self.ledger.dma_busy += dt_s;
                for &t in &targets {
                    self.dma_done[t] = end_s;
                }
                self.ledger
                    .acc
                    .record_chain(&targets, bytes, start_s, end_s);
                self.plan_next_chain(now, ctx);
            }
            Ev::UnitFree { unit } => {
                if self.dispatch_idx >= self.order.len() {
                    return None;
                }
                let t = self.order[self.dispatch_idx];
                let target = &self.targets[t];
                self.ledger.command_s += self.sys.config_time_s(target);
                let run = evaluate(&mut self.oracle, target, t, self.sys);
                self.watchdog_port.send(
                    ctx,
                    now,
                    Ev::Resolve {
                        target: t,
                        unit,
                        run,
                    },
                );
            }
            Ev::Resolved {
                target: t,
                unit,
                run,
                extra,
                newly_quarantined,
                still_healthy,
            } => {
                let sys = self.sys;
                let p = sys.params();
                let cycle_s = p.cycle_time_s();
                let target = &self.targets[t];
                let cfg = sys.config_time_s(target);
                let busy = (run.cycles.total() + extra) as f64 * cycle_s;
                // `now` is the unit's ps-quantized free instant — the exact
                // `from_ps(free_ps)` the legacy heap pop produced.
                let free = now.seconds();
                let start = free.max(self.dma_done[t]) + cfg;
                let dma_wait = (self.dma_done[t] - free).max(0.0);
                let end = start + busy + p.response_latency_s;
                self.ledger.command_s += p.response_latency_s;
                if newly_quarantined {
                    self.ledger.acc.record_quarantine(unit, end);
                }
                self.ledger.unit_busy[unit] += busy;
                self.ledger.compute_cycles += run.cycles.total();
                self.ledger.comparisons += run.comparisons;
                self.wall = self.wall.max(end);
                if self.ledger.acc.enabled() {
                    let active_units = 1 + self
                        .unit_end_s
                        .iter()
                        .enumerate()
                        .filter(|&(u, &e)| u != unit && e > start)
                        .count() as u64;
                    self.unit_end_s[unit] = start + busy;
                    while self.arrived < self.order.len()
                        && self.dma_done[self.order[self.arrived]] <= start
                    {
                        self.arrived += 1;
                    }
                    let prefetch_depth = self.arrived.saturating_sub(self.dispatch_idx + 1) as u64;
                    self.ledger.acc.record_prefetch_depth(prefetch_depth);
                    self.ledger.acc.record_dispatch(
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
                self.ledger.results[t] = Some(run);
                if still_healthy {
                    ctx.post(
                        UNIT_BASE + unit,
                        now,
                        0,
                        Ev::Dispatch {
                            wake_s: from_ps(to_ps(end)),
                        },
                    );
                }
                self.dispatch_idx += 1;
                if self.dispatch_idx == self.order.len() {
                    ctx.halt();
                }
            }
            _ => unreachable!("async scheduler received a DMA/unit-only message"),
        }
        None
    }
}

/// The synchronous-parallel scheduler as a component (Figure 7-top):
/// transfer a whole batch, launch every healthy unit, wait for the last,
/// flush, repeat.
struct SyncSched<'s, 't, 'o> {
    sys: &'s AcceleratedSystem,
    targets: &'t [RealignmentTarget],
    oracle: Option<&'o mut FunctionalOracle>,
    ledger: Ledger,
    order: Vec<usize>,
    /// Mirror of the watchdog's quarantine state; sizes the next batch.
    quarantined: Vec<bool>,
    cursor: usize,
    batch: Vec<usize>,
    healthy: Vec<usize>,
    slot: usize,
    /// The current batch's DMA time — every member stalls behind it.
    dma_s: f64,
    batch_end: f64,
    /// The scheduler's logical clock (batch boundaries).
    now_s: f64,
    frees_outstanding: usize,
    dma_port: Port,
    watchdog_port: Port,
}

impl<'s, 't, 'o> SyncSched<'s, 't, 'o> {
    fn new(
        sys: &'s AcceleratedSystem,
        targets: &'t [RealignmentTarget],
        telemetry: bool,
        oracle: Option<&'o mut FunctionalOracle>,
    ) -> Self {
        let units = sys.params().num_units;
        let mut order: Vec<usize> = (0..targets.len()).collect();
        match sys.scheduling() {
            Scheduling::SynchronousUnsorted => {}
            Scheduling::SynchronousByWorstCase => {
                order.sort_by_cached_key(|&t| Reverse(targets[t].shape().worst_case_comparisons()));
            }
            _ => order
                .sort_by_key(|&t| Reverse((targets[t].num_reads(), targets[t].num_consensuses()))),
        }
        SyncSched {
            sys,
            targets,
            oracle,
            ledger: Ledger::new(telemetry, units, sys.params().cycle_time_s(), targets.len()),
            order,
            quarantined: vec![false; units],
            cursor: 0,
            batch: Vec::new(),
            healthy: Vec::new(),
            slot: 0,
            dma_s: 0.0,
            batch_end: 0.0,
            now_s: 0.0,
            frees_outstanding: 0,
            dma_port: Port::new(DMA, 0),
            watchdog_port: Port::new(WATCHDOG, 0),
        }
    }

    /// Sizes the next batch to the healthy unit count and starts its DMA.
    fn start_batch(&mut self, ctx: &mut Ctx<Ev>) {
        let units = self.sys.params().num_units;
        self.healthy = (0..units).filter(|&u| !self.quarantined[u]).collect();
        let end = self.order.len().min(self.cursor + self.healthy.len());
        self.batch = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        let sizes: Vec<u64> = self
            .batch
            .iter()
            .map(|&t| self.targets[t].input_bytes())
            .collect();
        self.dma_port.send(
            ctx,
            SimTime::from_seconds(self.now_s),
            Ev::StartChain {
                targets: self.batch.clone(),
                sizes,
            },
        );
    }

    /// Configures and launches one batch slot (host-serial command issue).
    fn issue_slot(&mut self, now: SimTime, ctx: &mut Ctx<Ev>) {
        let t = self.batch[self.slot];
        let target = &self.targets[t];
        self.ledger.command_s += self.sys.config_time_s(target);
        let run = evaluate(&mut self.oracle, target, t, self.sys);
        self.watchdog_port.send(
            ctx,
            now,
            Ev::Resolve {
                target: t,
                unit: self.healthy[self.slot],
                run,
            },
        );
    }

    fn into_run(self, num_targets: usize) -> SystemRun {
        self.ledger.into_run(self.now_s, num_targets)
    }
}

impl Component for SyncSched<'_, '_, '_> {
    type Event = Ev;

    fn wake(&mut self, now: SimTime, msg: Ev, ctx: &mut Ctx<Ev>) -> Option<SimTime> {
        match msg {
            Ev::Tick => {
                if self.order.is_empty() {
                    ctx.halt();
                    return None;
                }
                self.start_batch(ctx);
            }
            Ev::ChainDone {
                targets,
                bytes,
                start_s,
                end_s,
                dt_s,
            } => {
                self.ledger
                    .acc
                    .record_chain(&targets, bytes, start_s, end_s);
                self.ledger.acc.tele.add("sched", "batches", 1);
                self.ledger.acc.record_prefetch_depth(targets.len() as u64);
                self.now_s = end_s;
                self.ledger.dma_busy += dt_s;
                self.dma_s = dt_s;
                self.batch_end = self.now_s;
                self.slot = 0;
                self.frees_outstanding = 0;
                self.issue_slot(now, ctx);
            }
            Ev::Resolved {
                target: t,
                unit,
                run,
                extra,
                newly_quarantined,
                still_healthy: _,
            } => {
                let sys = self.sys;
                let p = sys.params();
                let target = &self.targets[t];
                let cfg = sys.config_time_s(target);
                let busy = (run.cycles.total() + extra) as f64 * p.cycle_time_s();
                let start = self.now_s + cfg;
                let end = start + busy;
                if newly_quarantined {
                    self.quarantined[unit] = true;
                    self.ledger.acc.record_quarantine(unit, end);
                }
                self.ledger.unit_busy[unit] += busy;
                self.ledger.compute_cycles += run.cycles.total();
                self.ledger.comparisons += run.comparisons;
                self.batch_end = self.batch_end.max(end);
                if self.ledger.acc.enabled() {
                    self.ledger.acc.record_dispatch(
                        p,
                        DispatchRecord {
                            unit,
                            target_index: t,
                            start_s: start,
                            busy_s: busy,
                            busy_cycles: run.cycles.total() + extra,
                            stall_s: self.dma_s + cfg,
                            dma_wait_s: self.dma_s,
                            active_units: self.batch.len() as u64,
                            run: &run,
                            target,
                        },
                    );
                }
                self.ledger.results[t] = Some(run);
                ctx.post(UNIT_BASE + unit, now, 0, Ev::Dispatch { wake_s: end });
                self.frees_outstanding += 1;
                self.slot += 1;
                if self.slot < self.batch.len() {
                    self.issue_slot(now, ctx);
                }
            }
            // The batch barrier: the last unit to free ends the batch, then
            // the whole fabric flushes before the next one starts.
            Ev::UnitFree { unit: _ } => {
                self.frees_outstanding -= 1;
                if self.frees_outstanding > 0 {
                    return None;
                }
                let flush = self.sys.params().response_latency_s * self.batch.len() as f64;
                self.ledger.command_s += flush;
                if self.ledger.acc.enabled() {
                    for &unit in self.healthy.iter().take(self.batch.len()) {
                        self.ledger.acc.stall_s[unit] += flush;
                    }
                    self.ledger.acc.tele.span(
                        Track::Host,
                        SpanKind::Stall,
                        "batch flush",
                        None,
                        self.batch_end,
                        self.batch_end + flush,
                    );
                }
                self.now_s = self.batch_end + flush;
                if self.cursor < self.order.len() {
                    self.start_batch(ctx);
                } else {
                    ctx.halt();
                }
            }
            _ => unreachable!("sync scheduler received an async-only message"),
        }
        None
    }
}

/// Runs `targets` through the event-driven core. `fault` threads the
/// resilience state machine through the watchdog component; `oracle`
/// memoizes functional results across runs of the same workload.
pub(crate) fn run_event_driven(
    sys: &AcceleratedSystem,
    targets: &[RealignmentTarget],
    telemetry: bool,
    fault: Option<&mut FaultState<'_>>,
    oracle: Option<&mut FunctionalOracle>,
) -> SystemRun {
    let units = sys.params().num_units;
    let mut dma = DmaComp {
        dma: *sys.dma_params(),
        free_s: 0.0,
    };
    let mut watchdog = WatchdogComp { targets, fault };
    let mut unit_comps: Vec<UnitComp> = (0..units).map(|id| UnitComp { id }).collect();
    let mut engine = Engine::new();
    engine.post(SCHED, SimTime::ZERO, 0, Ev::Tick);

    macro_rules! drive {
        ($sched:expr) => {{
            let mut sched = $sched;
            {
                let mut comps: Vec<&mut dyn Component<Event = Ev>> =
                    Vec::with_capacity(UNIT_BASE + units);
                comps.push(&mut sched);
                comps.push(&mut dma);
                comps.push(&mut watchdog);
                for u in unit_comps.iter_mut() {
                    comps.push(u);
                }
                engine.run(&mut comps);
            }
            sched.into_run(targets.len())
        }};
    }

    match sys.scheduling() {
        Scheduling::Asynchronous => drive!(AsyncSched::new(sys, targets, telemetry, oracle)),
        _ => drive!(SyncSched::new(sys, targets, telemetry, oracle)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FpgaParams;
    use crate::system::SimBackend;
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
    fn engine_matches_legacy_all_schedulings() {
        let targets = workload(11);
        for scheduling in [
            Scheduling::Synchronous,
            Scheduling::SynchronousUnsorted,
            Scheduling::SynchronousByWorstCase,
            Scheduling::Asynchronous,
        ] {
            for params in [FpgaParams::serial(), FpgaParams::iracc()] {
                let sys = AcceleratedSystem::new(params, scheduling)
                    .unwrap()
                    .with_telemetry(true);
                let engine_run = sys.run(&targets);
                let legacy_run = sys
                    .clone()
                    .with_backend(SimBackend::LegacyStepper)
                    .run(&targets);
                assert_runs_bitwise_equal(&engine_run, &legacy_run);
            }
        }
    }

    #[test]
    fn engine_matches_legacy_without_telemetry() {
        let targets = workload(7);
        for scheduling in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let sys = AcceleratedSystem::new(FpgaParams::iracc(), scheduling).unwrap();
            let engine_run = sys.run(&targets);
            let legacy_run = sys
                .clone()
                .with_backend(SimBackend::LegacyStepper)
                .run(&targets);
            assert_runs_bitwise_equal(&engine_run, &legacy_run);
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
        let params = FpgaParams::iracc();
        let async_sys = AcceleratedSystem::new(params, Scheduling::Asynchronous).unwrap();
        let sync_sys = AcceleratedSystem::new(params, Scheduling::SynchronousByWorstCase).unwrap();
        let orders = [
            AsyncSched::new(&async_sys, &targets, false, None).order,
            SyncSched::new(&sync_sys, &targets, false, None).order,
        ];
        for order in orders {
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
