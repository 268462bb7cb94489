//! One IR accelerator unit: configuration FSM plus the two compute stages.
//!
//! A unit is configured through the five-command ISA (paper Table I), then
//! started. Execution proceeds load → compute → drain: the MemReaders fill
//! the three input block-RAM buffers, the Hamming Distance Calculator and
//! Consensus Selector run, and the MemWriters drain the two output
//! buffers.

use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel::{self, KernelKind};
use ir_core::{MinWhd, MinWhdGrid, ReadOutcome};
use ir_genome::RealignmentTarget;

use crate::fault::FaultPlan;
use crate::hdc::{run_pair, sweep_runs, HdcConfig, PairRun};
use crate::isa::{BufferIndex, IrCommand};
use crate::mem;
use crate::params::FpgaParams;
use crate::selector::run_selector;
use crate::FpgaError;

/// Per-phase cycle counts for one target on one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UnitCycles {
    /// Cycles filling the input buffers from FPGA DRAM.
    pub load: u64,
    /// Cycles in the Hamming Distance Calculator.
    pub hdc: u64,
    /// Cycles in the Consensus Selector.
    pub selector: u64,
    /// Cycles draining the output buffers to FPGA DRAM.
    pub drain: u64,
}

impl UnitCycles {
    /// Total cycles for the target.
    pub fn total(&self) -> u64 {
        self.load + self.hdc + self.selector + self.drain
    }
}

/// The result of running one target through a unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitRun {
    /// The min-WHD grid the HDC produced (identical to the golden model).
    pub grid: MinWhdGrid,
    /// Per-consensus scores from the selector.
    pub scores: Vec<u64>,
    /// Index of the picked consensus.
    pub best: usize,
    /// Per-read realignment outcomes.
    pub outcomes: Vec<ReadOutcome>,
    /// Cycle breakdown.
    pub cycles: UnitCycles,
    /// Base comparisons executed (post-pruning).
    pub comparisons: u64,
    /// Candidate offsets the pruning comparator cut short (0 with pruning
    /// disabled) — the early-exit count the telemetry layer reports.
    pub offsets_pruned: u64,
}

impl UnitRun {
    /// Index of the picked consensus (0 = reference, nothing realigned).
    pub fn best_consensus(&self) -> usize {
        self.best
    }

    /// Number of reads whose alignment changed.
    pub fn realigned_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.realigned()).count()
    }
}

/// Configuration state of one unit (the registers the ISA writes).
#[derive(Debug, Clone, Default)]
struct UnitConfig {
    addrs: [Option<u64>; 5],
    target_start: Option<u64>,
    sizes: Option<(u8, u16)>,
    lens: Vec<u16>,
}

/// One IR accelerator unit.
///
/// # Example
///
/// ```
/// use ir_fpga::{BufferIndex, FpgaParams, IrCommand, IrUnit};
/// use ir_genome::{Qual, Read, RealignmentTarget};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = RealignmentTarget::builder(20)
///     .reference("CCTTAGA".parse()?)
///     .consensus("ACCTGAA".parse()?)
///     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
///     .build()?;
///
/// let mut unit = IrUnit::new(0);
/// for cmd in IrUnit::command_sequence(&target, 0) {
///     unit.apply(cmd)?;
/// }
/// let run = unit.execute(&target, &FpgaParams::iracc())?;
/// assert_eq!(run.best_consensus(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IrUnit {
    id: usize,
    config: UnitConfig,
    started: bool,
    targets_completed: u64,
}

impl IrUnit {
    /// Creates an idle, unconfigured unit.
    pub fn new(id: usize) -> Self {
        IrUnit {
            id,
            config: UnitConfig::default(),
            started: false,
            targets_completed: 0,
        }
    }

    /// The unit's index in the sea of accelerators.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of targets this unit has completed.
    pub fn targets_completed(&self) -> u64 {
        self.targets_completed
    }

    /// The full command sequence the host issues to configure and start
    /// one target on unit `unit_id` (paper Table I usage: five
    /// `ir_set_addr`, one `ir_set_target`, one `ir_set_size`, one
    /// `ir_set_len` per consensus, one `ir_start`).
    pub fn command_sequence(target: &RealignmentTarget, unit_id: u8) -> Vec<IrCommand> {
        let mut cmds = Vec::with_capacity(IrCommand::commands_per_target(target.num_consensuses()));
        // Input/output arrays are laid out back-to-back in FPGA DRAM.
        let mut addr = 0x1000_0000u64 + (u64::from(unit_id) << 24);
        for buffer in BufferIndex::ALL {
            cmds.push(IrCommand::SetAddr { buffer, addr });
            addr += buffer.capacity_bytes() as u64;
        }
        cmds.push(IrCommand::SetTarget {
            start_pos: target.start_pos(),
        });
        cmds.push(IrCommand::SetSize {
            consensuses: target.num_consensuses() as u8,
            reads: target.num_reads() as u16,
        });
        for (id, consensus) in target.consensuses().iter().enumerate() {
            cmds.push(IrCommand::SetLen {
                consensus_id: id as u8,
                len: consensus.len() as u16,
            });
        }
        cmds.push(IrCommand::Start { unit_id });
        cmds
    }

    /// Applies one configuration command.
    ///
    /// # Errors
    ///
    /// - [`FpgaError::BufferOverflow`] if a consensus length exceeds the
    ///   2048-byte slot.
    /// - [`FpgaError::NotConfigured`] if `Start` arrives before the
    ///   addresses, target, sizes and every consensus length are set.
    pub fn apply(&mut self, cmd: IrCommand) -> Result<(), FpgaError> {
        match cmd {
            IrCommand::SetAddr { buffer, addr } => {
                self.config.addrs[buffer as usize] = Some(addr);
            }
            IrCommand::SetTarget { start_pos } => self.config.target_start = Some(start_pos),
            IrCommand::SetSize { consensuses, reads } => {
                self.config.sizes = Some((consensuses, reads));
                self.config.lens.clear();
            }
            IrCommand::SetLen { consensus_id, len } => {
                if usize::from(len) > 2048 {
                    return Err(FpgaError::BufferOverflow {
                        buffer: "consensus slot",
                        required: usize::from(len),
                        capacity: 2048,
                    });
                }
                let idx = usize::from(consensus_id);
                if self.config.lens.len() <= idx {
                    self.config.lens.resize(idx + 1, 0);
                }
                self.config.lens[idx] = len;
            }
            IrCommand::Start { .. } => {
                if self.config.addrs.iter().any(Option::is_none) {
                    return Err(FpgaError::NotConfigured("buffer addresses"));
                }
                if self.config.target_start.is_none() {
                    return Err(FpgaError::NotConfigured("target start position"));
                }
                let Some((consensuses, _)) = self.config.sizes else {
                    return Err(FpgaError::NotConfigured("target sizes"));
                };
                if self.config.lens.len() != usize::from(consensuses)
                    || self.config.lens.contains(&0)
                {
                    return Err(FpgaError::NotConfigured("consensus lengths"));
                }
                self.started = true;
            }
        }
        Ok(())
    }

    /// Whether the unit has been started and is ready to execute.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Executes the configured target, returning the functional result and
    /// cycle breakdown, and returns the unit to the idle state. The target
    /// runs through [`simulate_target_fast`], the path the schedulers,
    /// the oracle and the serve shards run.
    ///
    /// # Errors
    ///
    /// - [`FpgaError::NotConfigured`] if the unit was not started.
    /// - [`FpgaError::BufferOverflow`] if the target data does not match
    ///   the programmed configuration or exceeds the buffers.
    pub fn execute(
        &mut self,
        target: &RealignmentTarget,
        params: &FpgaParams,
    ) -> Result<UnitRun, FpgaError> {
        if !self.started {
            return Err(FpgaError::NotConfigured("unit not started"));
        }
        self.check_shape(target)?;

        let run = simulate_target_fast(target, params);
        self.started = false;
        self.config = UnitConfig::default();
        self.targets_completed += 1;
        Ok(run)
    }

    /// [`Self::execute`] under fault injection: the FSM can hang
    /// mid-target. A hung unit stays stuck-busy (`is_started` remains
    /// `true`) and posts no response; the host's watchdog must notice and
    /// [`Self::reset`] it. With an inert plan this is exactly `execute`.
    ///
    /// # Errors
    ///
    /// [`FpgaError::UnitHung`] on an injected hang, plus everything
    /// [`Self::execute`] returns.
    pub fn execute_with_faults(
        &mut self,
        target: &RealignmentTarget,
        params: &FpgaParams,
        plan: &mut FaultPlan,
    ) -> Result<UnitRun, FpgaError> {
        if !self.started {
            return Err(FpgaError::NotConfigured("unit not started"));
        }
        if plan.unit_hangs() {
            // Stuck-busy: keep `started`, complete nothing.
            return Err(FpgaError::UnitHung {
                unit: self.id,
                targets_completed: self.targets_completed,
            });
        }
        self.execute(target, params)
    }

    /// Host-initiated recovery: clears all configuration and the busy
    /// flag, returning the unit to the idle state (what the control
    /// program does after its watchdog declares the unit hung).
    pub fn reset(&mut self) {
        self.config = UnitConfig::default();
        self.started = false;
    }

    fn check_shape(&self, target: &RealignmentTarget) -> Result<(), FpgaError> {
        let (consensuses, reads) = self.config.sizes.expect("start checked sizes");
        if usize::from(consensuses) != target.num_consensuses()
            || usize::from(reads) != target.num_reads()
        {
            return Err(FpgaError::NotConfigured(
                "sizes do not match submitted target",
            ));
        }
        if self
            .config
            .lens
            .iter()
            .zip(target.consensuses())
            .any(|(&len, consensus)| usize::from(len) != consensus.len())
        {
            return Err(FpgaError::NotConfigured("consensus length mismatch"));
        }
        Ok(())
    }
}

/// Runs one target through the unit datapath model without the command
/// plumbing. Functional results are identical to
/// [`ir_core::IndelRealigner`].
///
/// This is the unit-level reference: it steps the HDC kernel
/// cycle-by-cycle ([`run_pair`]). The scheduler core runs
/// [`simulate_target_fast`], which must produce the identical [`UnitRun`]
/// (checked on random workloads by `tests/event_parity.rs`).
pub fn simulate_target(target: &RealignmentTarget, params: &FpgaParams) -> UnitRun {
    simulate_with(target, params, |i, j, cfg| {
        run_pair(
            target.consensus(i),
            target.read(j).bases(),
            target.read(j).quals(),
            cfg,
        )
    })
}

/// [`simulate_target`] through the equivalence-preserving fast HDC engine
/// on the ambient ([`ir_core::kernel::active`]) kernel: the target's
/// consensuses are transposed once into the structure-of-arrays batch
/// layout ([`CandidateBlock`]), one [`SweepRead`] buffer is refilled for
/// each read, and each read is swept against every candidate by the same
/// runtime-dispatched explicit-SIMD path as
/// [`crate::hdc::run_read_sweep`] (under the serial and dense shapes,
/// the block sweep shared with the software realigner,
/// [`ir_core::batch::sweep_block`], where each alternative reuses the
/// reference's entries wherever the two share a window), each pair's
/// result written straight into the grid. Returns a bitwise-identical
/// [`UnitRun`]; only host wall-clock differs. This is the path the
/// scheduler core, the `IR_THREADS` parallel sweeps, the functional
/// oracle, the serve shards and [`IrUnit::execute`] (so the
/// [`HostDriver`](crate::HostDriver)) all execute.
pub fn simulate_target_fast(target: &RealignmentTarget, params: &FpgaParams) -> UnitRun {
    simulate_target_fast_with(target, params, kernel::active())
}

/// [`simulate_target_fast`] on an explicitly chosen kernel — what the
/// kernel-parity suites use to cross-check every [`KernelKind`] in one
/// process.
///
/// # Panics
///
/// Panics if `kind` cannot run on this CPU.
pub fn simulate_target_fast_with(
    target: &RealignmentTarget,
    params: &FpgaParams,
    kind: KernelKind,
) -> UnitRun {
    let hdc_cfg = hdc_config(params);
    let block = CandidateBlock::from_target(target);
    let num_reads = target.num_reads();
    let mut cells = vec![MinWhd { whd: 0, offset: 0 }; target.num_consensuses() * num_reads];
    let mut sweep_read = SweepRead::default();
    let mut hdc_cycles = 0u64;
    let mut comparisons = 0u64;
    let mut offsets_pruned = 0u64;
    for (j, read) in target.reads().iter().enumerate() {
        sweep_read.refill(read.bases().bases(), read.quals());
        sweep_runs(&block, &sweep_read, kind, hdc_cfg, |i, pair| {
            hdc_cycles += pair.cycles;
            comparisons += pair.comparisons;
            offsets_pruned += pair.offsets_pruned;
            cells[i * num_reads + j] = pair.min;
        });
    }
    finish_run(
        target,
        params,
        cells,
        hdc_cycles,
        comparisons,
        offsets_pruned,
    )
}

/// The run of `target` under a multi-lane pruning `params`, derived from
/// `serial`, its run under the `lanes = 1` sibling
/// (`FpgaParams { lanes: 1, ..*params }`) — or `None` when the target
/// does not qualify.
///
/// It qualifies when every read [`HdcConfig::scans_in_full`] under
/// `params`: at most `(prune_latency_blocks + 1) · lanes` bases, 96 for
/// the 32-lane design. Then every pair of the multi-lane run takes the
/// dense shape, whose minimum and flagged offsets are the serial sweep's
/// (both count the offsets whose WHD exceeds the minimum over the
/// offsets before them). So the grid, the selector's outputs,
/// `offsets_pruned` and the load, selector and drain cycles carry over,
/// and only the HDC cycles and comparisons change, to
/// [`PairRun::dense`]'s closed form.
pub(crate) fn derive_from_serial(
    target: &RealignmentTarget,
    params: &FpgaParams,
    serial: &UnitRun,
) -> Option<UnitRun> {
    let cfg = hdc_config(params);
    if !cfg.pruning || cfg.lanes == 1 {
        return None;
    }
    if !target.reads().iter().all(|r| cfg.scans_in_full(r.len())) {
        return None;
    }
    let mut hdc_cycles = 0u64;
    let mut comparisons = 0u64;
    for (i, consensus) in target.consensuses().iter().enumerate() {
        for (j, read) in target.reads().iter().enumerate() {
            let pair = PairRun::dense(cfg, consensus.len(), read.len(), serial.grid.get(i, j), 0);
            hdc_cycles += pair.cycles;
            comparisons += pair.comparisons;
        }
    }
    Some(UnitRun {
        cycles: UnitCycles {
            hdc: scale_compute(hdc_cycles, params),
            ..serial.cycles
        },
        comparisons,
        ..serial.clone()
    })
}

fn hdc_config(params: &FpgaParams) -> HdcConfig {
    HdcConfig {
        lanes: params.lanes,
        pruning: params.pruning,
        pair_overhead_cycles: params.pair_overhead_cycles,
        prune_latency_blocks: if params.lanes > 1 { 2 } else { 0 },
    }
}

fn simulate_with(
    target: &RealignmentTarget,
    params: &FpgaParams,
    mut pair_fn: impl FnMut(usize, usize, HdcConfig) -> PairRun,
) -> UnitRun {
    let hdc_cfg = hdc_config(params);

    let mut cells = Vec::with_capacity(target.num_consensuses() * target.num_reads());
    let mut hdc_cycles = 0u64;
    let mut comparisons = 0u64;
    let mut offsets_pruned = 0u64;
    for i in 0..target.num_consensuses() {
        for j in 0..target.num_reads() {
            let pair = pair_fn(i, j, hdc_cfg);
            hdc_cycles += pair.cycles;
            comparisons += pair.comparisons;
            offsets_pruned += pair.offsets_pruned;
            cells.push(MinWhd {
                whd: pair.min.whd,
                offset: pair.min.offset,
            });
        }
    }
    finish_run(
        target,
        params,
        cells,
        hdc_cycles,
        comparisons,
        offsets_pruned,
    )
}

fn finish_run(
    target: &RealignmentTarget,
    params: &FpgaParams,
    cells: Vec<MinWhd>,
    hdc_cycles: u64,
    comparisons: u64,
    offsets_pruned: u64,
) -> UnitRun {
    let grid = MinWhdGrid::from_cells(target.num_consensuses(), target.num_reads(), cells);
    let sel = run_selector(&grid, target.start_pos());

    let cycles = UnitCycles {
        load: mem::load_cycles(target.input_bytes(), params.bus_bytes),
        hdc: scale_compute(hdc_cycles, params),
        selector: scale_compute(sel.cycles, params),
        drain: mem::drain_cycles(target.num_reads() as u64, params.bus_bytes),
    };
    UnitRun {
        grid,
        scores: sel.scores,
        best: sel.best,
        outcomes: sel.outcomes,
        cycles,
        comparisons,
        offsets_pruned,
    }
}

/// The compute-pipeline efficiency factor (1.0 for the Chisel design,
/// > 1 for the HLS build) applied to a compute stage's cycles.
fn scale_compute(cycles: u64, params: &FpgaParams) -> u64 {
    (cycles as f64 * params.compute_overhead).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::IndelRealigner;
    use ir_genome::{Qual, Read};

    fn figure4_target() -> RealignmentTarget {
        RealignmentTarget::builder(20)
            .reference("CCTTAGA".parse().unwrap())
            .consensus("ACCTGAA".parse().unwrap())
            .consensus("TCTGCCT".parse().unwrap())
            .read(
                Read::new(
                    "r0",
                    "TGAA".parse().unwrap(),
                    Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
                    0,
                )
                .unwrap(),
            )
            .read(
                Read::new(
                    "r1",
                    "CCTC".parse().unwrap(),
                    Qual::from_raw_scores(&[10, 60, 30, 20]).unwrap(),
                    0,
                )
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn command_sequence_has_expected_length_and_order() {
        let target = figure4_target();
        let cmds = IrUnit::command_sequence(&target, 5);
        assert_eq!(cmds.len(), IrCommand::commands_per_target(3));
        assert!(matches!(cmds[0], IrCommand::SetAddr { .. }));
        assert!(matches!(cmds.last(), Some(IrCommand::Start { unit_id: 5 })));
    }

    #[test]
    fn full_command_flow_then_execute() {
        let target = figure4_target();
        let mut unit = IrUnit::new(0);
        for cmd in IrUnit::command_sequence(&target, 0) {
            unit.apply(cmd).unwrap();
        }
        assert!(unit.is_started());
        let run = unit.execute(&target, &FpgaParams::iracc()).unwrap();
        assert_eq!(run.best_consensus(), 1);
        assert_eq!(unit.targets_completed(), 1);
        assert!(!unit.is_started(), "unit returns to idle");
    }

    #[test]
    fn start_without_config_fails() {
        let mut unit = IrUnit::new(0);
        let err = unit.apply(IrCommand::Start { unit_id: 0 }).unwrap_err();
        assert!(matches!(err, FpgaError::NotConfigured(_)));
    }

    #[test]
    fn hang_leaves_unit_stuck_busy_until_reset() {
        use crate::fault::{FaultPlan, FaultRates};
        let target = figure4_target();
        let mut unit = IrUnit::new(4);
        for cmd in IrUnit::command_sequence(&target, 4) {
            unit.apply(cmd).unwrap();
        }
        let mut plan = FaultPlan::seeded(
            0,
            FaultRates {
                unit_hang: 1.0,
                ..FaultRates::none()
            },
        );
        let err = unit
            .execute_with_faults(&target, &FpgaParams::iracc(), &mut plan)
            .unwrap_err();
        assert!(matches!(err, FpgaError::UnitHung { unit: 4, .. }));
        assert!(unit.is_started(), "hung unit is stuck busy");
        assert_eq!(unit.targets_completed(), 0);
        unit.reset();
        assert!(!unit.is_started());
        // After recovery the full flow works again (inert plan).
        for cmd in IrUnit::command_sequence(&target, 4) {
            unit.apply(cmd).unwrap();
        }
        let run = unit
            .execute_with_faults(&target, &FpgaParams::iracc(), &mut FaultPlan::none())
            .unwrap();
        assert_eq!(run.best_consensus(), 1);
    }

    #[test]
    fn execute_without_start_fails() {
        let mut unit = IrUnit::new(0);
        let err = unit
            .execute(&figure4_target(), &FpgaParams::iracc())
            .unwrap_err();
        assert!(matches!(err, FpgaError::NotConfigured(_)));
    }

    #[test]
    fn oversized_consensus_len_rejected() {
        let mut unit = IrUnit::new(0);
        let err = unit
            .apply(IrCommand::SetLen {
                consensus_id: 0,
                len: 2049,
            })
            .unwrap_err();
        assert!(matches!(err, FpgaError::BufferOverflow { .. }));
    }

    #[test]
    fn mismatched_size_config_rejected_at_execute() {
        let target = figure4_target();
        let mut unit = IrUnit::new(0);
        for cmd in IrUnit::command_sequence(&target, 0) {
            // Corrupt the size command.
            let cmd = if let IrCommand::SetSize { reads, .. } = cmd {
                IrCommand::SetSize {
                    consensuses: 9,
                    reads,
                }
            } else {
                cmd
            };
            // SetLen count will now mismatch; Start will fail.
            if unit.apply(cmd).is_err() {
                return; // rejected at Start — acceptable
            }
        }
        assert!(unit.execute(&target, &FpgaParams::iracc()).is_err());
    }

    #[test]
    fn functional_result_matches_golden_model() {
        let target = figure4_target();
        let golden = IndelRealigner::new().realign(&target);
        for params in [FpgaParams::serial(), FpgaParams::iracc()] {
            let run = simulate_target(&target, &params);
            assert_eq!(run.grid, *golden.grid());
            assert_eq!(run.scores, golden.scores());
            assert_eq!(run.best, golden.best_consensus());
            assert_eq!(run.outcomes, golden.outcomes());
        }
    }

    #[test]
    fn data_parallel_is_not_slower() {
        let target = figure4_target();
        let serial = simulate_target(&target, &FpgaParams::serial());
        let parallel = simulate_target(&target, &FpgaParams::iracc());
        assert!(parallel.cycles.hdc <= serial.cycles.hdc);
        assert_eq!(parallel.cycles.selector, serial.cycles.selector);
    }

    #[test]
    fn serial_hdc_cycles_track_golden_comparisons() {
        let target = figure4_target();
        let golden = IndelRealigner::new().realign(&target);
        let run = simulate_target(&target, &FpgaParams::serial());
        // Serial HDC executes exactly the golden pruned comparisons, plus
        // the per-pair overhead.
        let pairs = (target.num_consensuses() * target.num_reads()) as u64;
        assert_eq!(
            run.cycles.hdc,
            golden.ops().base_comparisons + pairs * FpgaParams::serial().pair_overhead_cycles
        );
    }

    /// Figure 4's reads plus a 70-base read followed by a 3-base one, so
    /// the reused sweep buffer shrinks from two lane blocks to one.
    fn shrinking_reads_target() -> RealignmentTarget {
        let read = |bases: &str, score: u8| {
            let quals = Qual::uniform(score, bases.len()).unwrap();
            Read::new("r", bases.parse().unwrap(), quals, 0).unwrap()
        };
        RealignmentTarget::builder(20)
            .reference("CCTTAGAT".repeat(12).parse().unwrap())
            .consensus("ACCTGAAC".repeat(12).parse().unwrap())
            .read(read(&"TGAAC".repeat(14), 60))
            .read(read("TGA", 2))
            .build()
            .unwrap()
    }

    #[test]
    fn fast_simulation_is_bitwise_identical() {
        for target in [figure4_target(), shrinking_reads_target()] {
            for params in [FpgaParams::serial(), FpgaParams::iracc()] {
                let want = simulate_target(&target, &params);
                assert_eq!(simulate_target_fast(&target, &params), want);
                for kind in KernelKind::available() {
                    assert_eq!(
                        simulate_target_fast_with(&target, &params, kind),
                        want,
                        "kernel {kind}"
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_total_sums_phases() {
        let run = simulate_target(&figure4_target(), &FpgaParams::iracc());
        let c = run.cycles;
        assert_eq!(c.total(), c.load + c.hdc + c.selector + c.drain);
        assert!(c.load > 0 && c.drain > 0);
    }
}
