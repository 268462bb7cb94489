//! The full accelerated IR system on one F1 instance: a sea of IR units,
//! the PCIe DMA path, the host control program, and the two scheduling
//! schemes of Figure 7.

use std::sync::Arc;

use ir_genome::{RealignmentTarget, TargetShape};
use ir_telemetry::{SpanKind, Telemetry, TelemetrySnapshot, Track};
use serde::{Deserialize, Serialize};

use crate::arbiter::{contention_stats, ArbiterStats};
use crate::dma::DmaParams;
use crate::driver::{ResiliencePolicy, ResilienceReport};
use crate::fault::{FaultPlan, ResponseFault};
use crate::isa::IrCommand;
use crate::layout::{decode_outputs, encode_outputs};
use crate::mem::{burst_stats, BurstStats};
use crate::oracle::FunctionalOracle;
use crate::params::FpgaParams;
use crate::resources::{validate, ResourceReport};
use crate::shape::BufferGeometry;
use crate::unit::UnitRun;
use crate::FpgaError;

/// How targets are dispatched onto the sea of units (paper §IV
/// "Asynchronous Scheduling", Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Scheduling {
    /// Synchronous-parallel: transfer and launch a whole batch of
    /// `num_units` targets, wait for *all* units to finish, flush, repeat.
    /// Targets are pre-sorted by read and consensus counts (the paper's
    /// mitigation) so batches are as uniform as that coarse key can make
    /// them — pruning variance defeats this anyway.
    Synchronous,
    /// Synchronous batches in plain submission order — the strawman the
    /// paper's sorting mitigates (`ablation_scheduling`).
    SynchronousUnsorted,
    /// Synchronous batches sorted by exact worst-case comparison count —
    /// a *better* key than the paper's, showing how much of the
    /// synchronous penalty sorting alone can(not) recover.
    SynchronousByWorstCase,
    /// Asynchronous-parallel: a unit receives its next target the moment
    /// it posts a completion response; DMA prefetches ahead of compute.
    #[default]
    Asynchronous,
}

/// What a timeline interval represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimelinePhase {
    /// PCIe DMA transfer of target input data.
    Transfer,
    /// An IR unit computing a target (load + HDC + selector + drain).
    Compute,
}

/// One interval of the execution timeline (used to reproduce the Figure 7
/// gantt charts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Unit index for compute phases; `usize::MAX` for DMA transfers.
    pub unit: usize,
    /// Index of the target in the submitted slice.
    pub target_index: usize,
    /// Interval start, seconds from run start.
    pub start_s: f64,
    /// Interval end, seconds from run start.
    pub end_s: f64,
    /// What the interval represents.
    pub phase: TimelinePhase,
}

/// The outcome of running a set of targets through the accelerated system.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// End-to-end wall-clock seconds, including data transfer, command
    /// issue, compute and responses — the same end-to-end measurement the
    /// paper's control program reports.
    pub wall_time_s: f64,
    /// Per-target functional results, in submission order. Identical to
    /// the golden model's output. A run over a [`FunctionalOracle`] shares
    /// the oracle's entries rather than copying them.
    pub results: Vec<Arc<UnitRun>>,
    /// Total seconds the DMA engine was busy.
    pub dma_busy_s: f64,
    /// Total host seconds spent issuing commands and polling responses.
    pub command_s: f64,
    /// Summed compute cycles across all units.
    pub compute_cycles: u64,
    /// Total base comparisons executed on the fabric.
    pub comparisons: u64,
    /// Per-unit busy seconds.
    pub unit_busy_s: Vec<f64>,
    /// Timeline of transfer/compute intervals, derived from the telemetry
    /// trace (populated whenever [`AcceleratedSystem::with_telemetry`]
    /// enabled it).
    pub timeline: Vec<TimelineEvent>,
    /// Recovery accounting (only populated by
    /// [`AcceleratedSystem::run_resilient`]; `None` on fault-free entry
    /// points).
    pub resilience: Option<ResilienceReport>,
    /// Cycle-level perf counters and the span trace (populated whenever
    /// telemetry is enabled; `None` otherwise). Enabling telemetry never
    /// changes any reported cycle count — the instrumentation only reads
    /// values the schedulers already compute.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl SystemRun {
    /// Mean unit utilization: busy time over wall time, averaged across
    /// units. The synchronous scheduler's low utilization is exactly the
    /// effect Figure 7-top illustrates.
    pub fn utilization(&self) -> f64 {
        if self.wall_time_s == 0.0 || self.unit_busy_s.is_empty() {
            return 0.0;
        }
        let mean_busy: f64 = self.unit_busy_s.iter().sum::<f64>() / self.unit_busy_s.len() as f64;
        mean_busy / self.wall_time_s
    }

    /// Fraction of wall time spent on PCIe DMA (paper §IV: ≈ 0.01%).
    pub fn dma_fraction(&self) -> f64 {
        if self.wall_time_s == 0.0 {
            0.0
        } else {
            self.dma_busy_s / self.wall_time_s
        }
    }

    /// Effective base comparisons per second achieved over the run.
    pub fn comparisons_per_second(&self) -> f64 {
        if self.wall_time_s == 0.0 {
            0.0
        } else {
            self.comparisons as f64 / self.wall_time_s
        }
    }
}

/// Per-run recovery state threaded through the schedulers when
/// [`AcceleratedSystem::run_resilient`] is driving. It mirrors the
/// [`crate::driver::HostDriver`] policy machinery at the timing level:
/// instead of replaying transfers through queues it charges the cycles
/// each recovery action costs to the unit that paid them.
pub(crate) struct FaultState<'a> {
    pub(crate) plan: &'a mut FaultPlan,
    pub(crate) policy: &'a ResiliencePolicy,
    pub(crate) report: ResilienceReport,
    pub(crate) failures: Vec<u32>,
    pub(crate) quarantined: Vec<bool>,
}

impl FaultState<'_> {
    fn healthy_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| !q).count()
    }

    /// Plays the recovery state machine for one dispatched target and
    /// returns the extra cycles (watchdog waits, discarded attempts,
    /// backoff) the executing unit burned beyond the successful compute.
    ///
    /// Side effects mirror the driver: counters accumulate into the
    /// report, repeated unit-attributed failures quarantine the unit
    /// (never the last healthy one), a target that exhausts its retries
    /// falls back to the software result (cycles zeroed — the fabric
    /// never finished it), and a corrupt read-back that escapes sampled
    /// verification replaces `run.outcomes` with the corrupt decode. Both
    /// changes copy `run` on write, so a shared oracle entry never sees
    /// them.
    pub(crate) fn resolve(
        &mut self,
        target: &RealignmentTarget,
        run: &mut Arc<UnitRun>,
        unit: usize,
    ) -> u64 {
        let policy = *self.policy;
        let mut extra = 0u64;
        let mut succeeded = false;
        for attempt in 0..=policy.max_retries {
            let mut failed = false;
            let mut unit_at_fault = false;
            if self.plan.dma_fault(target.input_bytes()).is_some() {
                // Per-target re-transfer; not attributed to the unit.
                self.report.dma_faults += 1;
                failed = true;
            } else if self.plan.unit_hangs() {
                self.report.unit_hangs += 1;
                extra += policy.watchdog_cycles;
                failed = true;
                unit_at_fault = true;
            } else {
                match self.plan.response_fault() {
                    ResponseFault::Dropped => {
                        // The work completed but the completion vanished:
                        // the compute is stranded and the host waits out
                        // its watchdog before re-dispatching.
                        self.report.timeouts += 1;
                        extra += run.cycles.total() + policy.watchdog_cycles;
                        failed = true;
                        unit_at_fault = true;
                    }
                    ResponseFault::Duplicated => self.report.stale_responses += 1,
                    ResponseFault::Delivered => {}
                }
                if !failed {
                    let (mut flags, mut positions) =
                        encode_outputs(&run.outcomes, target.start_pos());
                    if self.plan.corrupt_outputs(&mut flags, &mut positions) {
                        let decoded = decode_outputs(
                            &flags,
                            &positions,
                            run.outcomes.len(),
                            target.start_pos(),
                        );
                        if decoded.is_err() || self.plan.sample_verify(policy.verify_rate) {
                            self.report.corrupt_detected += 1;
                            extra += run.cycles.total();
                            failed = true;
                            unit_at_fault = true;
                        } else if let Ok(corrupt) = decoded {
                            // Undetected single-bit flip: the corrupt
                            // outcomes ship. This is exactly what
                            // `verify_rate < 1` risks.
                            Arc::make_mut(run).outcomes = corrupt;
                        }
                    }
                }
            }
            if !failed {
                if attempt > 0 {
                    self.report.recovered_targets += 1;
                    self.report.recovered_cycles += run.cycles.total();
                }
                self.failures[unit] = 0;
                succeeded = true;
                break;
            }
            if unit_at_fault {
                self.failures[unit] += 1;
                if self.failures[unit] >= policy.quarantine_threshold
                    && !self.quarantined[unit]
                    && self.healthy_count() > 1
                {
                    self.quarantined[unit] = true;
                    self.report.quarantined_units.push(unit);
                }
            }
            if attempt < policy.max_retries {
                self.report.retries += 1;
                extra += policy.backoff_base_cycles << attempt;
            }
        }
        if !succeeded {
            // Software fallback: the golden outcomes already in `run`
            // stand, but the fabric never finished this target — its
            // cycles and comparisons happened on host cores instead.
            self.report.fallbacks += 1;
            let run = Arc::make_mut(run);
            run.cycles = crate::unit::UnitCycles::default();
            run.comparisons = 0;
        }
        self.report.lost_cycles += extra;
        extra
    }
}

/// One dispatched target's observables, handed to [`TeleAcc`]. Everything
/// here is a value the scheduler already computed — recording it cannot
/// perturb timing.
pub(crate) struct DispatchRecord<'a> {
    pub(crate) unit: usize,
    pub(crate) target_index: usize,
    pub(crate) start_s: f64,
    pub(crate) busy_s: f64,
    /// Integer cycles the unit was busy (compute + fault-recovery extra).
    pub(crate) busy_cycles: u64,
    /// Seconds this dispatch stalled the unit (data wait, config,
    /// response).
    pub(crate) stall_s: f64,
    /// Portion of the stall spent waiting on DMA data specifically.
    pub(crate) dma_wait_s: f64,
    /// Units concurrently streaming/computing, including this one (drives
    /// the 32:1 arbiter counters).
    pub(crate) active_units: u64,
    pub(crate) run: &'a UnitRun,
    /// The dispatched target; its cached consensus and read base totals
    /// size the five memory streams.
    pub(crate) target: &'a RealignmentTarget,
}

/// Run totals of the counters and gauges every chain and dispatch
/// touches, kept as plain integers while the run records and written into
/// the registry once by [`TeleAcc::finalize`]. A key is written exactly
/// when some chain or dispatch would have created it.
#[derive(Default)]
struct Totals {
    chains: u64,
    chain_bytes: u64,
    chain_targets_hwm: u64,
    prefetch_depth_hwm: Option<u64>,
    dma_stall_cycles: u64,
    load_cycles: u64,
    hdc_cycles: u64,
    selector_cycles: u64,
    drain_cycles: u64,
    comparisons: u64,
    pruned_offsets: u64,
    /// 5:1 arbiter: grants and conflict cycles summed, queue depth maxed.
    arb5: ArbiterStats,
    /// `None` until some dispatch shares the 32:1 arbiter.
    arb32_conflict_grants: Option<u64>,
    active_units_hwm: u64,
    /// DDR traffic summed over dispatches (`stream_beats` unused).
    ddr: BurstStats,
    consensus_bytes_hwm: u64,
    read_bytes_hwm: u64,
    output_bytes_hwm: u64,
}

/// The telemetry accumulator both schedulers thread their observations
/// through. When disabled every method returns immediately; when enabled
/// it gathers per-unit cycle ledgers, block counters and spans, then
/// [`TeleAcc::finalize`] closes the books so that for every unit
/// `busy + stall + quarantined + idle == total` holds exactly.
pub(crate) struct TeleAcc {
    pub(crate) tele: Telemetry,
    cycle_s: f64,
    busy_cycles: Vec<u64>,
    pub(crate) stall_s: Vec<f64>,
    dispatches: Vec<u64>,
    /// Wall time at which the unit was quarantined (`f64::INFINITY` =
    /// never); cycles from then to the end of the run are charged as
    /// quarantined rather than idle.
    quarantine_at_s: Vec<f64>,
    totals: Totals,
}

impl TeleAcc {
    pub(crate) fn new(enabled: bool, units: usize, cycle_s: f64) -> Self {
        TeleAcc {
            tele: Telemetry::with_enabled(enabled),
            cycle_s,
            busy_cycles: vec![0; units],
            stall_s: vec![0.0; units],
            dispatches: vec![0; units],
            quarantine_at_s: vec![f64::INFINITY; units],
            totals: Totals::default(),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.tele.is_enabled()
    }

    fn to_cycles(&self, s: f64) -> u64 {
        if s <= 0.0 {
            0
        } else {
            (s / self.cycle_s).round() as u64
        }
    }

    /// Records one DMA descriptor chain: chain-level counters plus one
    /// transfer span per carried target (the spans reconstruct the
    /// Figure 7 timeline).
    pub(crate) fn record_chain(&mut self, targets: &[usize], bytes: u64, start_s: f64, end_s: f64) {
        if !self.enabled() {
            return;
        }
        let t = &mut self.totals;
        t.chains += 1;
        t.chain_bytes += bytes;
        t.chain_targets_hwm = t.chain_targets_hwm.max(targets.len() as u64);
        self.tele.observe("dma", "chain_bytes", bytes);
        if let Telemetry::On(c) = &mut self.tele {
            for &target in targets {
                c.tracer.span_args_owned(
                    Track::Dma,
                    SpanKind::Transfer,
                    format!("xfer t{target}"),
                    Some(target),
                    start_s,
                    end_s,
                    &[],
                );
            }
        }
    }

    /// Raises the DMA prefetch-depth high-water mark: targets whose input
    /// had arrived ahead of the one being dispatched.
    pub(crate) fn record_prefetch_depth(&mut self, depth: u64) {
        if self.enabled() {
            let hwm = self.totals.prefetch_depth_hwm.get_or_insert(0);
            *hwm = (*hwm).max(depth);
        }
    }

    pub(crate) fn record_quarantine(&mut self, unit: usize, at_s: f64) {
        if self.enabled() {
            self.quarantine_at_s[unit] = self.quarantine_at_s[unit].min(at_s);
        }
    }

    /// Records one target landing on one unit: the compute span, per-unit
    /// ledger entries, and every block-level counter the dispatch touches
    /// (HDC, 5:1 and 32:1 arbiters, DDR, BRAM occupancy).
    pub(crate) fn record_dispatch(&mut self, params: &FpgaParams, d: DispatchRecord) {
        if !self.enabled() {
            return;
        }
        let DispatchRecord {
            unit,
            target_index,
            start_s,
            busy_s,
            busy_cycles,
            stall_s,
            dma_wait_s,
            active_units,
            run,
            target,
        } = d;
        self.busy_cycles[unit] += busy_cycles;
        self.stall_s[unit] += stall_s;
        self.dispatches[unit] += 1;

        if let Telemetry::On(c) = &mut self.tele {
            c.tracer.span_args_owned(
                Track::Unit(unit),
                SpanKind::Compute,
                format!("t{target_index}"),
                Some(target_index),
                start_s,
                start_s + busy_s,
                &[("cycles", busy_cycles), ("comparisons", run.comparisons)],
            );
        }
        if dma_wait_s > 0.0 {
            self.tele.span(
                Track::Unit(unit),
                SpanKind::Stall,
                "dma wait",
                Some(target_index),
                start_s - dma_wait_s,
                start_s,
            );
        }
        self.tele.observe("unit", "target_cycles", busy_cycles);

        let dma_stall_cycles = self.to_cycles(dma_wait_s);
        let t = &mut self.totals;
        t.dma_stall_cycles += dma_stall_cycles;
        let c = run.cycles;
        t.load_cycles += c.load;
        t.hdc_cycles += c.hdc;
        t.selector_cycles += c.selector;
        t.drain_cycles += c.drain;
        t.comparisons += run.comparisons;
        t.pruned_offsets += run.offsets_pruned;

        // 5:1 intra-unit arbiter: the five memory streams of this target
        // contend for the unit's single TileLink port.
        let consensus_bytes = target.total_consensus_bases();
        let read_bytes = target.total_read_bases();
        let burst = burst_stats(
            consensus_bytes,
            read_bytes,
            target.num_reads() as u64,
            params.bus_bytes,
        );
        let arb5 = contention_stats(&burst.stream_beats);
        t.arb5.grants += arb5.grants;
        t.arb5.conflict_cycles += arb5.conflict_cycles;
        t.arb5.queue_depth_hwm = t.arb5.queue_depth_hwm.max(arb5.queue_depth_hwm);

        // 32:1 system arbiter: every beat this target moves was granted
        // there too (`ddr.beats` doubles as its grant count); beats issued
        // while other units stream are conflicted.
        if active_units > 1 {
            *t.arb32_conflict_grants.get_or_insert(0) += burst.beats;
        }
        t.active_units_hwm = t.active_units_hwm.max(active_units);

        t.ddr.bytes += burst.bytes;
        t.ddr.beats += burst.beats;
        t.ddr.rows_activated += burst.rows_activated;
        t.ddr.row_hits += burst.row_hits;

        // BRAM occupancy high-water marks against the fixed buffer
        // geometry of `crate::bram::unit_buffers`; the output buffers hold
        // whatever the burst moved beyond the three input streams.
        let output_bytes = burst.bytes - consensus_bytes - 2 * read_bytes;
        t.consensus_bytes_hwm = t.consensus_bytes_hwm.max(consensus_bytes);
        t.read_bytes_hwm = t.read_bytes_hwm.max(read_bytes);
        t.output_bytes_hwm = t.output_bytes_hwm.max(output_bytes);
    }

    /// Writes the run [`Totals`] into the registry: the chain keys if any
    /// chain ran, the prefetch gauge if any dispatch measured it, and the
    /// dispatch keys if any target was dispatched.
    fn write_totals(&mut self) {
        let t = &self.totals;
        let tele = &mut self.tele;
        if t.chains > 0 {
            tele.add("dma", "bytes", t.chain_bytes);
            tele.add("dma", "chains", t.chains);
            tele.gauge_max("dma", "chain_targets_hwm", t.chain_targets_hwm);
        }
        if let Some(depth) = t.prefetch_depth_hwm {
            tele.gauge_max("dma", "prefetch_depth_hwm", depth);
        }
        let dispatches: u64 = self.dispatches.iter().sum();
        if dispatches == 0 {
            return;
        }
        tele.add("sched", "dispatches", dispatches);
        tele.add("dma", "stall_cycles", t.dma_stall_cycles);
        tele.add("unit_phase", "load_cycles", t.load_cycles);
        tele.add("unit_phase", "hdc_cycles", t.hdc_cycles);
        tele.add("unit_phase", "selector_cycles", t.selector_cycles);
        tele.add("unit_phase", "drain_cycles", t.drain_cycles);
        tele.add("hdc", "comparisons", t.comparisons);
        tele.add("hdc", "pruned_offsets", t.pruned_offsets);
        tele.add("arbiter5", "grants", t.arb5.grants);
        tele.add("arbiter5", "conflict_cycles", t.arb5.conflict_cycles);
        tele.gauge_max("arbiter5", "queue_depth_hwm", t.arb5.queue_depth_hwm);
        tele.add("arbiter32", "grants", t.ddr.beats);
        if let Some(grants) = t.arb32_conflict_grants {
            tele.add("arbiter32", "conflict_grants", grants);
        }
        tele.gauge_max("arbiter32", "active_units_hwm", t.active_units_hwm);
        tele.add("ddr", "bytes", t.ddr.bytes);
        tele.add("ddr", "beats", t.ddr.beats);
        tele.add("ddr", "rows_activated", t.ddr.rows_activated);
        tele.add("ddr", "row_hits", t.ddr.row_hits);
        tele.gauge_max("bram", "consensus_bytes_hwm", t.consensus_bytes_hwm);
        tele.gauge_max("bram", "read_bytes_hwm", t.read_bytes_hwm);
        tele.gauge_max("bram", "qual_bytes_hwm", t.read_bytes_hwm);
        tele.gauge_max("bram", "output_bytes_hwm", t.output_bytes_hwm);
    }

    /// Closes the per-unit cycle ledgers against the final wall clock,
    /// writes the run totals, and returns the snapshot (`None` when
    /// disabled).
    ///
    /// Busy cycles are exact integers from the datapath model; stall and
    /// quarantined cycles are rounded from seconds and clamped so the
    /// conservation invariant `busy + stall + quarantined + idle == total`
    /// holds exactly, with idle as the derived remainder.
    pub(crate) fn finalize(
        mut self,
        wall_s: f64,
        command_s: f64,
        dma_busy_s: f64,
        num_targets: usize,
    ) -> Option<TelemetrySnapshot> {
        if !self.enabled() {
            return None;
        }
        self.write_totals();
        let total = self.to_cycles(wall_s);
        for unit in 0..self.busy_cycles.len() {
            let busy = self.busy_cycles[unit].min(total);
            let stall = self.to_cycles(self.stall_s[unit]).min(total - busy);
            let quarantined = if self.quarantine_at_s[unit].is_finite() {
                self.to_cycles(wall_s - self.quarantine_at_s[unit])
                    .min(total - busy - stall)
            } else {
                0
            };
            let idle = total - busy - stall - quarantined;
            self.tele.add_idx("unit", unit, "busy_cycles", busy);
            self.tele.add_idx("unit", unit, "stall_cycles", stall);
            self.tele
                .add_idx("unit", unit, "quarantined_cycles", quarantined);
            self.tele.add_idx("unit", unit, "idle_cycles", idle);
            self.tele.add_idx("unit", unit, "total_cycles", total);
            self.tele
                .add_idx("unit", unit, "targets", self.dispatches[unit]);
        }
        self.tele.add("system", "wall_cycles", total);
        self.tele.add("system", "targets", num_targets as u64);
        self.tele
            .add("host", "command_cycles", self.to_cycles(command_s));
        self.tele
            .add("dma", "busy_cycles", self.to_cycles(dma_busy_s));
        self.tele.finish()
    }
}

/// Rebuilds the [`TimelineEvent`] list older consumers (the Figure 7
/// gantt renderers) expect from the recorded trace spans.
pub(crate) fn timeline_from_snapshot(snapshot: &TelemetrySnapshot) -> Vec<TimelineEvent> {
    snapshot
        .trace
        .events
        .iter()
        .filter_map(|e| {
            let (unit, phase) = match (e.track, e.kind) {
                (Track::Dma, SpanKind::Transfer) => (usize::MAX, TimelinePhase::Transfer),
                (Track::Unit(u), SpanKind::Compute) => (u, TimelinePhase::Compute),
                _ => return None,
            };
            Some(TimelineEvent {
                unit,
                target_index: e.target?,
                start_s: e.start_s,
                end_s: e.end_s,
                phase,
            })
        })
        .collect()
}

/// The accelerated system: validated configuration plus a scheduler.
///
/// # Example
///
/// ```
/// use ir_fpga::{AcceleratedSystem, FpgaParams, Scheduling};
///
/// let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)?;
/// assert_eq!(system.params().num_units, 32);
/// assert!(system.resources().bram_utilization < 0.90);
/// # Ok::<(), ir_fpga::FpgaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratedSystem {
    params: FpgaParams,
    scheduling: Scheduling,
    dma: DmaParams,
    resources: ResourceReport,
    geometry: BufferGeometry,
    telemetry: bool,
}

impl AcceleratedSystem {
    /// Builds a system, validating FPGA fit and timing closure. The unit
    /// buffer geometry defaults to the deployed hardware's
    /// ([`BufferGeometry::HARDWARE`]); per-shape fabrics install their
    /// derived geometry with [`Self::with_geometry`].
    ///
    /// # Errors
    ///
    /// Propagates [`FpgaError::DoesNotFit`] / [`FpgaError::TimingFailure`]
    /// from [`crate::resources::validate`].
    pub fn new(params: FpgaParams, scheduling: Scheduling) -> Result<Self, FpgaError> {
        let resources = validate(&params)?;
        Ok(AcceleratedSystem {
            params,
            scheduling,
            dma: DmaParams::default(),
            resources,
            geometry: BufferGeometry::HARDWARE,
            telemetry: false,
        })
    }

    /// Installs a per-shape unit buffer geometry (from
    /// [`crate::shape::derive_shape_config`], whose derivation already
    /// proved the fit) and recomputes the floorplan report at that
    /// geometry's per-unit BRAM cost. Admission against the geometry is a
    /// host-side policy ([`Self::admits`]); the cycle model itself is
    /// geometry-agnostic, so a default-geometry system behaves exactly as
    /// before.
    pub fn with_geometry(mut self, geometry: BufferGeometry) -> Self {
        self.geometry = geometry;
        self.resources = crate::resources::report_with_unit_blocks(
            self.params.num_units,
            self.params.lanes,
            geometry.unit_bram36_blocks(),
        );
        self
    }

    /// The unit buffer geometry this fabric was built with.
    pub fn geometry(&self) -> &BufferGeometry {
        &self.geometry
    }

    /// Whether one target of `shape` fits this fabric's unit buffers —
    /// the admission predicate shape-aware routers consult before
    /// dispatching to this system.
    pub fn admits(&self, shape: &TargetShape) -> bool {
        self.geometry.holds(shape)
    }

    /// Overrides the DMA parameters (defaults to [`DmaParams::default`]).
    pub fn with_dma(mut self, dma: DmaParams) -> Self {
        self.dma = dma;
        self
    }

    /// Enables or disables cycle-level telemetry for subsequent runs
    /// (disabled by default; zero cost when disabled). Enabled runs attach
    /// a [`TelemetrySnapshot`] to [`SystemRun::telemetry`] and populate
    /// [`SystemRun::timeline`] without changing any reported cycle count.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Whether telemetry collection is enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// The PCIe DMA parameters in use.
    pub fn dma_params(&self) -> &DmaParams {
        &self.dma
    }

    /// The validated FPGA parameters.
    pub fn params(&self) -> &FpgaParams {
        &self.params
    }

    /// The scheduling scheme in use.
    pub fn scheduling(&self) -> Scheduling {
        self.scheduling
    }

    /// The floorplan report for this configuration.
    pub fn resources(&self) -> &ResourceReport {
        &self.resources
    }

    /// Runs `targets` end to end and reports timing. Telemetry (counters,
    /// trace, timeline) is attached iff [`Self::with_telemetry`] enabled
    /// it.
    pub fn run(&self, targets: &[RealignmentTarget]) -> SystemRun {
        crate::engine::run(self, targets, None, None)
    }

    /// [`Self::run`] with a shared [`FunctionalOracle`], so replays of the
    /// same workload under other configurations reuse every memoized
    /// [`UnitRun`]. Telemetry follows [`Self::with_telemetry`].
    pub fn run_with_oracle(
        &self,
        targets: &[RealignmentTarget],
        oracle: &mut FunctionalOracle,
    ) -> SystemRun {
        crate::engine::run(self, targets, None, Some(oracle))
    }

    /// Runs `targets` with fault injection and the host resilience
    /// policy. Each dispatched target plays the driver's recovery state
    /// machine (watchdog, bounded retry with exponential backoff,
    /// integrity-checked read-back, quarantine, software fallback); every
    /// failed attempt's cycles are charged to the executing unit, so the
    /// wall clock shows the price of recovery. The run always completes —
    /// targets that exhaust hardware retries keep the golden software
    /// result — and [`SystemRun::resilience`] records what happened.
    ///
    /// With [`FaultPlan::none`] the output is bit-identical to
    /// [`Self::run`] except for an all-zero report (asserted by
    /// `tests/resilience.rs`).
    ///
    /// Modeling notes: quarantine shrinks scheduling capacity (a
    /// quarantined unit receives no further targets); per-target DMA
    /// retries are charged to the unit rather than re-simulated through
    /// the batched descriptor chains; software-fallback compute happens
    /// on host cores off the modeled fabric clock, so it adds no fabric
    /// wall time, while the discarded hardware attempts it replaces do.
    pub fn run_resilient(
        &self,
        targets: &[RealignmentTarget],
        plan: &mut FaultPlan,
        policy: &ResiliencePolicy,
    ) -> SystemRun {
        self.run_resilient_inner(targets, plan, policy, None)
    }

    /// [`Self::run_resilient`] over a shared [`FunctionalOracle`]. The
    /// oracle memoizes the *fault-free* datapath result per target, and
    /// the run shares each entry until a fault changes it: an undetected
    /// corrupt read-back or a software fallback copies the entry on write
    /// and changes the copy, never the cached entry, so a fault-rate sweep
    /// over one workload evaluates each target's datapath exactly once.
    pub fn run_resilient_with_oracle(
        &self,
        targets: &[RealignmentTarget],
        plan: &mut FaultPlan,
        policy: &ResiliencePolicy,
        oracle: &mut FunctionalOracle,
    ) -> SystemRun {
        self.run_resilient_inner(targets, plan, policy, Some(oracle))
    }

    fn run_resilient_inner(
        &self,
        targets: &[RealignmentTarget],
        plan: &mut FaultPlan,
        policy: &ResiliencePolicy,
        oracle: Option<&mut FunctionalOracle>,
    ) -> SystemRun {
        let mut state = FaultState {
            plan,
            policy,
            report: ResilienceReport::default(),
            failures: vec![0; self.params.num_units],
            quarantined: vec![false; self.params.num_units],
        };
        let mut run = crate::engine::run(self, targets, Some(&mut state), oracle);
        state.report.faults = state.plan.counts();
        if let Some(snapshot) = run.telemetry.as_mut() {
            state.report.record_into(&mut snapshot.counters);
        }
        run.resilience = Some(state.report);
        run
    }

    /// Host time to configure and start one target.
    pub(crate) fn config_time_s(&self, target: &RealignmentTarget) -> f64 {
        IrCommand::commands_per_target(target.num_consensuses()) as f64 * self.params.cmd_latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::IndelRealigner;
    use ir_genome::{Qual, Read, Sequence};

    /// Builds a target whose reads mismatch the consensus in controlled
    /// amounts, so different targets have very different pruned workloads.
    fn target_with(
        reads: usize,
        read_len: usize,
        cons_len: usize,
        seed: usize,
    ) -> RealignmentTarget {
        let ref_bases: Sequence = (0..cons_len)
            .map(|i| ir_genome::Base::from_index((i * 7 + seed) % 4))
            .collect();
        let alt: Sequence = (0..cons_len)
            .map(|i| ir_genome::Base::from_index((i * 7 + seed + (i % 13 == 0) as usize) % 4))
            .collect();
        let mut builder = RealignmentTarget::builder(1000 * seed as u64)
            .reference(ref_bases.clone())
            .consensus(alt);
        for j in 0..reads {
            let offset = (j * 11 + seed) % (cons_len - read_len);
            let bases: Sequence = ref_bases.slice(offset, offset + read_len);
            let quals = Qual::uniform(30, read_len).unwrap();
            builder = builder.read(Read::new(format!("r{j}"), bases, quals, 0).unwrap());
        }
        builder.build().unwrap()
    }

    fn small_workload() -> Vec<RealignmentTarget> {
        (0..12)
            .map(|s| target_with(5 + s % 5, 48, 256 + 24 * s, s + 1))
            .collect()
    }

    #[test]
    fn construction_validates_fit() {
        assert!(AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).is_ok());
        let bad = FpgaParams {
            num_units: 100,
            ..FpgaParams::iracc()
        };
        assert!(AcceleratedSystem::new(bad, Scheduling::Asynchronous).is_err());
    }

    #[test]
    fn results_match_golden_model_both_schedulers() {
        let targets = small_workload();
        let golden: Vec<_> = targets
            .iter()
            .map(|t| IndelRealigner::new().realign(t))
            .collect();
        for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let system = AcceleratedSystem::new(FpgaParams::iracc(), sched).unwrap();
            let run = system.run(&targets);
            assert_eq!(run.results.len(), targets.len());
            for (got, want) in run.results.iter().zip(golden.iter()) {
                assert_eq!(&got.grid, want.grid());
                assert_eq!(got.best, want.best_consensus());
                assert_eq!(got.outcomes, want.outcomes());
            }
        }
    }

    #[test]
    fn async_is_not_slower_than_sync() {
        let targets: Vec<_> = (0..40)
            .map(|s| target_with(4 + s % 7, 48, 192 + 32 * (s % 9), s + 1))
            .collect();
        let sync = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Synchronous)
            .unwrap()
            .run(&targets);
        let asynchronous = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)
            .unwrap()
            .run(&targets);
        assert!(asynchronous.wall_time_s <= sync.wall_time_s * 1.001);
    }

    #[test]
    fn async_utilization_beats_sync_on_skewed_work() {
        // Heavily skewed targets: one straggler per batch.
        let mut targets = Vec::new();
        for s in 0..32 {
            let cons_len = if s % 8 == 0 { 1536 } else { 160 };
            targets.push(target_with(6, 48, cons_len, s + 1));
        }
        let sync = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Synchronous)
            .unwrap()
            .run(&targets);
        let asynchronous = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)
            .unwrap()
            .run(&targets);
        assert!(asynchronous.utilization() >= sync.utilization());
    }

    #[test]
    fn sorting_policies_order_as_expected() {
        // Unsorted ≥ paper sort ≥ exact-work sort ≥ async on a workload
        // with both shape and pruning variance.
        let targets: Vec<_> = (0..64)
            .map(|s| target_with(3 + s % 9, 48, 128 + 48 * (s % 7), s + 1))
            .collect();
        let wall = |sched| {
            AcceleratedSystem::new(FpgaParams::serial(), sched)
                .expect("fits")
                .run(&targets)
                .wall_time_s
        };
        let unsorted = wall(Scheduling::SynchronousUnsorted);
        let paper = wall(Scheduling::Synchronous);
        let exact = wall(Scheduling::SynchronousByWorstCase);
        let asynchronous = wall(Scheduling::Asynchronous);
        assert!(
            paper <= unsorted * 1.001,
            "paper sort {paper} vs unsorted {unsorted}"
        );
        assert!(
            exact <= paper * 1.001,
            "exact sort {exact} vs paper {paper}"
        );
        assert!(
            asynchronous <= exact * 1.001,
            "async {asynchronous} vs exact {exact}"
        );
    }

    #[test]
    fn all_sync_variants_produce_identical_results() {
        let targets = small_workload();
        let golden: Vec<usize> =
            AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Synchronous)
                .expect("fits")
                .run(&targets)
                .results
                .iter()
                .map(|r| r.best)
                .collect();
        for sched in [
            Scheduling::SynchronousUnsorted,
            Scheduling::SynchronousByWorstCase,
        ] {
            let got: Vec<usize> = AcceleratedSystem::new(FpgaParams::iracc(), sched)
                .expect("fits")
                .run(&targets)
                .results
                .iter()
                .map(|r| r.best)
                .collect();
            assert_eq!(got, golden, "{sched:?} must not change functional results");
        }
    }

    #[test]
    fn dma_is_a_tiny_fraction() {
        let targets = small_workload();
        let run = AcceleratedSystem::new(FpgaParams::serial(), Scheduling::Asynchronous)
            .unwrap()
            .run(&targets);
        assert!(
            run.dma_fraction() < 0.25,
            "dma fraction {}",
            run.dma_fraction()
        );
    }

    #[test]
    fn telemetry_run_produces_timeline() {
        let targets = small_workload();
        let run = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Synchronous)
            .unwrap()
            .with_telemetry(true)
            .run(&targets);
        let transfers = run
            .timeline
            .iter()
            .filter(|e| e.phase == TimelinePhase::Transfer);
        let computes = run
            .timeline
            .iter()
            .filter(|e| e.phase == TimelinePhase::Compute);
        assert_eq!(transfers.count(), targets.len());
        assert_eq!(computes.count(), targets.len());
        for e in &run.timeline {
            assert!(e.end_s >= e.start_s);
            assert!(e.end_s <= run.wall_time_s + 1e-12);
        }
        // Untraced run has no timeline.
        let run = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Synchronous)
            .unwrap()
            .run(&targets);
        assert!(run.timeline.is_empty());
    }

    #[test]
    fn wall_time_bounded_by_serial_sum() {
        let targets = small_workload();
        let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).unwrap();
        let run = system.run(&targets);
        let serial_compute: f64 = run.unit_busy_s.iter().sum();
        // Parallel run must beat running everything back-to-back on one
        // unit (plus transfers).
        assert!(run.wall_time_s < serial_compute + run.dma_busy_s + run.command_s + 1e-9);
    }

    #[test]
    fn empty_workload_is_free() {
        let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).unwrap();
        let run = system.run(&[]);
        assert_eq!(run.wall_time_s, 0.0);
        assert!(run.results.is_empty());
        assert_eq!(run.utilization(), 0.0);
    }

    #[test]
    fn resilient_run_with_inert_plan_is_bit_identical() {
        use crate::driver::ResiliencePolicy;
        use crate::fault::FaultPlan;
        let targets = small_workload();
        for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let system = AcceleratedSystem::new(FpgaParams::iracc(), sched).unwrap();
            let plain = system.run(&targets);
            let mut plan = FaultPlan::none();
            let resilient = system.run_resilient(&targets, &mut plan, &ResiliencePolicy::default());
            assert_eq!(resilient.wall_time_s, plain.wall_time_s, "{sched:?}");
            assert_eq!(resilient.results.len(), plain.results.len());
            for (a, b) in resilient.results.iter().zip(plain.results.iter()) {
                assert_eq!(a.outcomes, b.outcomes);
                assert_eq!(a.cycles, b.cycles);
            }
            assert_eq!(resilient.unit_busy_s, plain.unit_busy_s);
            assert_eq!(resilient.compute_cycles, plain.compute_cycles);
            let report = resilient.resilience.expect("report attached");
            assert!(report.is_clean(), "{report:?}");
        }
    }

    #[test]
    fn resilient_run_completes_under_default_fault_rates() {
        use crate::driver::ResiliencePolicy;
        use crate::fault::{FaultPlan, FaultRates};
        let targets = small_workload();
        let golden: Vec<_> = targets
            .iter()
            .map(|t| IndelRealigner::new().realign(t))
            .collect();
        for sched in [Scheduling::Synchronous, Scheduling::Asynchronous] {
            let system = AcceleratedSystem::new(FpgaParams::iracc(), sched).unwrap();
            let mut plan = FaultPlan::seeded(11, FaultRates::default_rates());
            let run = system.run_resilient(&targets, &mut plan, &ResiliencePolicy::default());
            assert_eq!(run.results.len(), targets.len());
            for (got, want) in run.results.iter().zip(golden.iter()) {
                // verify_rate = 1.0: no silent corruption is possible.
                assert_eq!(got.outcomes, want.outcomes());
            }
            let report = run.resilience.expect("report attached");
            assert_eq!(report.faults, plan.counts());
        }
    }

    #[test]
    fn heavy_faults_quarantine_units_but_never_all() {
        use crate::driver::ResiliencePolicy;
        use crate::fault::{FaultPlan, FaultRates};
        let targets: Vec<_> = (0..48).map(|s| target_with(4, 48, 160, s + 1)).collect();
        let system = AcceleratedSystem::new(
            FpgaParams {
                num_units: 4,
                ..FpgaParams::iracc()
            },
            Scheduling::Asynchronous,
        )
        .unwrap();
        let mut plan = FaultPlan::seeded(
            5,
            FaultRates {
                unit_hang: 0.9,
                ..FaultRates::none()
            },
        );
        let policy = ResiliencePolicy {
            quarantine_threshold: 2,
            ..ResiliencePolicy::default()
        };
        let run = system.run_resilient(&targets, &mut plan, &policy);
        let report = run.resilience.expect("report attached");
        assert!(!report.quarantined_units.is_empty(), "{report:?}");
        assert!(report.quarantined_units.len() < 4, "one unit must survive");
        assert!(report.lost_cycles > 0);
        // Every target still completed (hardware retry or fallback).
        assert_eq!(run.results.len(), targets.len());
        let golden: Vec<_> = targets
            .iter()
            .map(|t| IndelRealigner::new().realign(t))
            .collect();
        for (got, want) in run.results.iter().zip(golden.iter()) {
            assert_eq!(got.outcomes, want.outcomes());
        }
    }

    #[test]
    fn faulty_run_is_not_faster_than_fault_free() {
        use crate::driver::ResiliencePolicy;
        use crate::fault::{FaultPlan, FaultRates};
        let targets = small_workload();
        let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).unwrap();
        let clean = system.run(&targets).wall_time_s;
        let mut plan = FaultPlan::seeded(2, FaultRates::uniform(0.05));
        let faulty = system
            .run_resilient(&targets, &mut plan, &ResiliencePolicy::default())
            .wall_time_s;
        assert!(
            faulty >= clean,
            "recovery must cost wall time: {faulty} < {clean}"
        );
    }

    #[test]
    fn per_shape_geometry_changes_admission_not_timing() {
        let targets = small_workload();
        let base = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous).unwrap();
        assert_eq!(base.geometry(), &BufferGeometry::HARDWARE);
        assert!(targets.iter().all(|t| base.admits(&t.shape())));

        let tight = BufferGeometry {
            max_consensuses: 4,
            max_reads: 8,
            consensus_slot_bytes: 512,
            read_slot_bytes: 64,
        };
        let shaped = base.clone().with_geometry(tight);
        // Admission follows the geometry: the wider workload targets no
        // longer fit the tight unit buffers...
        assert!(targets.iter().any(|t| !shaped.admits(&t.shape())));
        // ...and the floorplan report re-prices the unit at its new BRAM
        // cost...
        assert!(shaped.resources().bram_blocks < base.resources().bram_blocks);
        // ...but the cycle model is geometry-agnostic: identical runs.
        let a = base.run(&targets);
        let b = shaped.run(&targets);
        assert_eq!(a.wall_time_s, b.wall_time_s);
        assert_eq!(a.compute_cycles, b.compute_cycles);
    }

    #[test]
    fn comparisons_per_second_below_peak() {
        let targets = small_workload();
        let params = FpgaParams::serial();
        let run = AcceleratedSystem::new(params, Scheduling::Asynchronous)
            .unwrap()
            .run(&targets);
        assert!(run.comparisons_per_second() <= params.peak_comparisons_per_second() as f64);
    }
}
