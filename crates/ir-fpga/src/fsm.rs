//! A cycle-steppable FSM model of the Hamming Distance Calculator.
//!
//! [`crate::hdc::run_pair`] computes a pair's result and cycle count in
//! closed form; this module implements the same datapath as an explicit
//! state machine advanced **one clock edge per [`HdcFsm::step`] call** —
//! the shape the Chisel RTL has. Property tests pin the two models
//! cycle-for-cycle against each other, which is what justifies calling
//! the fast model "cycle-level".

use ir_core::MinWhd;
use ir_genome::{Qual, Sequence};

use crate::hdc::HdcConfig;

/// Execution state of the calculator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Charging the per-pair setup cycles (pointer loads, min reset).
    Setup {
        /// Setup cycles remaining.
        remaining: u64,
    },
    /// Scanning offset `k`, about to issue the block starting at
    /// `block_start`.
    Scan {
        /// Current offset.
        k: usize,
        /// Next block's first base index.
        block_start: usize,
        /// Blocks still to issue after a prune verdict (adder-tree
        /// latency), if one is pending.
        drain: Option<u64>,
    },
    /// All offsets processed.
    Done,
}

/// A steppable Hamming Distance Calculator for one (consensus, read) pair.
///
/// # Example
///
/// ```
/// use ir_fpga::fsm::HdcFsm;
/// use ir_fpga::hdc::HdcConfig;
/// use ir_genome::{Qual, Sequence};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cons: Sequence = "CCTTAGA".parse()?;
/// let read: Sequence = "TGAA".parse()?;
/// let quals = Qual::from_raw_scores(&[10, 20, 45, 10])?;
/// let mut fsm = HdcFsm::new(&cons, &read, &quals, HdcConfig::serial());
/// while fsm.step() {}
/// assert_eq!(fsm.result().expect("finished").whd, 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HdcFsm<'a> {
    cons: &'a [ir_genome::Base],
    bases: &'a [ir_genome::Base],
    scores: &'a [u8],
    cfg: HdcConfig,
    state: State,
    max_k: usize,
    // Datapath registers.
    whd: u64,
    pruned: bool,
    min: MinWhd,
    cycles: u64,
    comparisons: u64,
}

impl<'a> HdcFsm<'a> {
    /// Creates the FSM in its setup state.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`crate::hdc::run_pair`].
    pub fn new(
        consensus: &'a Sequence,
        read: &'a Sequence,
        quals: &'a Qual,
        cfg: HdcConfig,
    ) -> Self {
        assert!(cfg.lanes > 0, "HDC must have at least one lane");
        assert!(read.len() <= consensus.len(), "read longer than consensus");
        assert!(quals.len() >= read.len(), "missing quality scores");
        let state = if cfg.pair_overhead_cycles > 0 {
            State::Setup {
                remaining: cfg.pair_overhead_cycles,
            }
        } else {
            State::Scan {
                k: 0,
                block_start: 0,
                drain: None,
            }
        };
        HdcFsm {
            cons: consensus.bases(),
            bases: read.bases(),
            scores: quals.scores(),
            cfg,
            state,
            max_k: consensus.len() - read.len(),
            whd: 0,
            pruned: false,
            min: MinWhd {
                whd: u64::MAX,
                offset: 0,
            },
            cycles: 0,
            comparisons: 0,
        }
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Comparisons issued so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// The final minimum, once the FSM reaches its done state.
    pub fn result(&self) -> Option<MinWhd> {
        matches!(self.state, State::Done).then_some(self.min)
    }

    /// Ends the current offset: record min/prune and advance to the next
    /// offset or the done state.
    fn finish_offset(&mut self, k: usize) {
        if !self.pruned && self.whd < self.min.whd {
            self.min = MinWhd {
                whd: self.whd,
                offset: k,
            };
        }
        self.whd = 0;
        self.pruned = false;
        self.state = if k == self.max_k {
            State::Done
        } else {
            State::Scan {
                k: k + 1,
                block_start: 0,
                drain: None,
            }
        };
    }

    /// Advances one clock edge. Returns `true` while the FSM is busy.
    pub fn step(&mut self) -> bool {
        match self.state {
            State::Done => false,
            State::Setup { remaining } => {
                self.cycles += 1;
                self.state = if remaining > 1 {
                    State::Setup {
                        remaining: remaining - 1,
                    }
                } else {
                    State::Scan {
                        k: 0,
                        block_start: 0,
                        drain: None,
                    }
                };
                true
            }
            State::Scan {
                k,
                block_start,
                drain,
            } => {
                // Issue one block.
                self.cycles += 1;
                let n = self.bases.len();
                let block_end = (block_start + self.cfg.lanes).min(n);
                self.comparisons += (block_end - block_start) as u64;
                for idx in block_start..block_end {
                    if self.cons[k + idx] != self.bases[idx] {
                        self.whd += u64::from(self.scores[idx]);
                    }
                }
                // Pipeline control, mirroring `run_pair`.
                let mut next_drain = drain;
                let mut stop = false;
                if let Some(remaining) = next_drain.as_mut() {
                    *remaining -= 1;
                    if *remaining == 0 {
                        stop = true;
                    }
                } else if self.cfg.pruning && self.whd > self.min.whd {
                    self.pruned = true;
                    if self.cfg.prune_latency_blocks == 0 {
                        stop = true;
                    } else {
                        next_drain = Some(self.cfg.prune_latency_blocks);
                    }
                }
                if stop || block_end >= n {
                    self.finish_offset(k);
                } else {
                    self.state = State::Scan {
                        k,
                        block_start: block_end,
                        drain: next_drain,
                    };
                }
                true
            }
        }
    }
}

/// Execution state of the consensus selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SelectorState {
    /// Scoring consensus `i`, read `j`, sub-cycle 0 (buffer read) or 1
    /// (accumulate/writeback) — the single-ported dist/pos buffers cost
    /// two cycles per (consensus, read) update (paper Figure 5).
    Score {
        /// Current consensus (≥ 1).
        i: usize,
        /// Current read.
        j: usize,
        /// 0 = buffer read, 1 = accumulate.
        phase: u8,
    },
    /// Final realignment pass over read `j` (one cycle per read).
    Realign {
        /// Current read.
        j: usize,
    },
    /// All reads emitted.
    Done,
}

/// A cycle-steppable Consensus Selector over a completed min-WHD grid —
/// the second stage of the IR unit, validated against
/// [`crate::selector::selector_cycles`] and
/// [`crate::selector::run_selector`].
///
/// # Example
///
/// ```
/// use ir_core::{MinWhd, MinWhdGrid};
/// use ir_fpga::fsm::SelectorFsm;
///
/// let cell = |whd| MinWhd { whd, offset: 0 };
/// let grid = MinWhdGrid::from_cells(2, 1, vec![cell(30), cell(0)]);
/// let mut fsm = SelectorFsm::new(&grid, 100);
/// while fsm.step() {}
/// assert_eq!(fsm.best(), Some(1));
/// ```
#[derive(Debug)]
pub struct SelectorFsm<'a> {
    grid: &'a ir_core::MinWhdGrid,
    target_start_pos: u64,
    state: SelectorState,
    cycles: u64,
    // Datapath registers (Figure 5 bottom): running score of the current
    // consensus, score and index of the running minimum.
    curr_score: u64,
    best_score: u64,
    best: usize,
    outcomes: Vec<ir_core::ReadOutcome>,
}

impl<'a> SelectorFsm<'a> {
    /// Creates the selector over a completed grid.
    pub fn new(grid: &'a ir_core::MinWhdGrid, target_start_pos: u64) -> Self {
        let state = if grid.num_consensuses() > 1 {
            SelectorState::Score {
                i: 1,
                j: 0,
                phase: 0,
            }
        } else {
            SelectorState::Realign { j: 0 }
        };
        SelectorFsm {
            grid,
            target_start_pos,
            state,
            cycles: 0,
            curr_score: 0,
            best_score: u64::MAX,
            best: if grid.num_consensuses() > 1 { 1 } else { 0 },
            outcomes: Vec::with_capacity(grid.num_reads()),
        }
    }

    /// Cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The picked consensus, once done.
    pub fn best(&self) -> Option<usize> {
        matches!(self.state, SelectorState::Done).then_some(self.best)
    }

    /// The per-read outcomes, once done.
    pub fn outcomes(&self) -> Option<&[ir_core::ReadOutcome]> {
        matches!(self.state, SelectorState::Done).then_some(&self.outcomes)
    }

    /// Advances one clock edge. Returns `true` while busy.
    pub fn step(&mut self) -> bool {
        let reads = self.grid.num_reads();
        let consensuses = self.grid.num_consensuses();
        match self.state {
            SelectorState::Done => false,
            SelectorState::Score { i, j, phase } => {
                self.cycles += 1;
                if phase == 0 {
                    // Buffer read cycle (single-ported dist buffers).
                    self.state = SelectorState::Score { i, j, phase: 1 };
                } else {
                    // Accumulate |whd[i,j] − whd[0,j]|.
                    self.curr_score += self.grid.get(i, j).whd.abs_diff(self.grid.get(0, j).whd);
                    if j + 1 < reads {
                        self.state = SelectorState::Score {
                            i,
                            j: j + 1,
                            phase: 0,
                        };
                    } else {
                        // Consensus finished: the min-score comparator
                        // updates on strictly smaller scores.
                        if self.curr_score < self.best_score {
                            self.best_score = self.curr_score;
                            self.best = i;
                        }
                        self.curr_score = 0;
                        self.state = if i + 1 < consensuses {
                            SelectorState::Score {
                                i: i + 1,
                                j: 0,
                                phase: 0,
                            }
                        } else {
                            SelectorState::Realign { j: 0 }
                        };
                    }
                }
                true
            }
            SelectorState::Realign { j } => {
                self.cycles += 1;
                let reference = self.grid.get(0, j);
                let picked = self.grid.get(self.best, j);
                let realign = self.best != 0 && picked.whd < reference.whd;
                self.outcomes.push(ir_core::ReadOutcome::from_parts(
                    realign,
                    picked.offset,
                    picked.offset as u64 + self.target_start_pos,
                ));
                self.state = if j + 1 < reads {
                    SelectorState::Realign { j: j + 1 }
                } else {
                    SelectorState::Done
                };
                true
            }
        }
    }
}

/// Phase of the whole-unit FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitPhase {
    /// Filling the input buffers (one beat per cycle through the 5:1
    /// arbitrated TileLink port, after the burst latency).
    Load {
        /// Load cycles remaining.
        remaining: u64,
    },
    /// Running the HDC over pair `(i, j)`.
    Hdc {
        /// Current consensus.
        i: usize,
        /// Current read.
        j: usize,
    },
    /// Running the consensus selector.
    Selector,
    /// Draining the output buffers.
    Drain {
        /// Drain cycles remaining.
        remaining: u64,
    },
    /// Finished.
    Done,
}

/// A clock-steppable model of one **whole IR unit** processing one
/// target: load → HDC over every (consensus, read) pair → selector →
/// drain. Cycle counts match [`crate::unit::simulate_target`] exactly
/// (with `compute_overhead = 1`), which is the composition proof that the
/// fast closed-form model is cycle-faithful end to end.
///
/// # Example
///
/// ```
/// use ir_fpga::fsm::UnitFsm;
/// use ir_fpga::unit::simulate_target;
/// use ir_fpga::FpgaParams;
/// use ir_genome::{Qual, Read, RealignmentTarget};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = RealignmentTarget::builder(20)
///     .reference("CCTTAGA".parse()?)
///     .consensus("ACCTGAA".parse()?)
///     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
///     .build()?;
///
/// let params = FpgaParams::iracc();
/// let mut fsm = UnitFsm::new(&target, &params);
/// while fsm.step() {}
/// assert_eq!(fsm.cycles(), simulate_target(&target, &params).cycles.total());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct UnitFsm<'a> {
    target: &'a ir_genome::RealignmentTarget,
    cfg: HdcConfig,
    grid_cells: Vec<MinWhd>,
    phase: UnitPhase,
    hdc: Option<HdcFsm<'a>>,
    selector_cycles_left: u64,
    selector_done: bool,
    cycles: u64,
    drain_total: u64,
}

impl<'a> UnitFsm<'a> {
    /// Creates the unit FSM for one target under `params`.
    pub fn new(target: &'a ir_genome::RealignmentTarget, params: &crate::FpgaParams) -> Self {
        let (num_consensuses, num_reads) = (target.num_consensuses(), target.num_reads());
        let cfg = HdcConfig {
            lanes: params.lanes,
            pruning: params.pruning,
            pair_overhead_cycles: params.pair_overhead_cycles,
            prune_latency_blocks: if params.lanes > 1 { 2 } else { 0 },
        };
        UnitFsm {
            target,
            cfg,
            grid_cells: Vec::with_capacity(num_consensuses * num_reads),
            phase: UnitPhase::Load {
                remaining: crate::mem::load_cycles(target.input_bytes(), params.bus_bytes),
            },
            hdc: None,
            selector_cycles_left: crate::selector::selector_cycles(num_consensuses, num_reads),
            selector_done: false,
            cycles: 0,
            drain_total: crate::mem::drain_cycles(num_reads as u64, params.bus_bytes),
        }
    }

    /// Cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether the unit has finished the target.
    pub fn is_done(&self) -> bool {
        self.phase == UnitPhase::Done
    }

    /// The completed min-WHD grid, once the HDC phase has finished.
    pub fn grid(&self) -> Option<ir_core::MinWhdGrid> {
        let (num_consensuses, num_reads) = (self.target.num_consensuses(), self.target.num_reads());
        (self.grid_cells.len() == num_consensuses * num_reads).then(|| {
            ir_core::MinWhdGrid::from_cells(num_consensuses, num_reads, self.grid_cells.clone())
        })
    }

    fn start_pair(&mut self, i: usize, j: usize) {
        self.hdc = Some(HdcFsm::new(
            self.target.consensus(i),
            self.target.read(j).bases(),
            self.target.read(j).quals(),
            self.cfg,
        ));
    }

    /// Advances one clock edge. Returns `true` while busy.
    pub fn step(&mut self) -> bool {
        match self.phase {
            UnitPhase::Done => false,
            UnitPhase::Load { remaining } => {
                self.cycles += 1;
                self.phase = if remaining > 1 {
                    UnitPhase::Load {
                        remaining: remaining - 1,
                    }
                } else {
                    self.start_pair(0, 0);
                    UnitPhase::Hdc { i: 0, j: 0 }
                };
                true
            }
            UnitPhase::Hdc { i, j } => {
                self.cycles += 1;
                let hdc = self.hdc.as_mut().expect("HDC FSM active in Hdc phase");
                hdc.step();
                if let Some(min) = hdc.result() {
                    self.grid_cells.push(min);
                    let (next_i, next_j) = if j + 1 < self.target.num_reads() {
                        (i, j + 1)
                    } else {
                        (i + 1, 0)
                    };
                    if next_i < self.target.num_consensuses() {
                        self.start_pair(next_i, next_j);
                        self.phase = UnitPhase::Hdc {
                            i: next_i,
                            j: next_j,
                        };
                    } else {
                        self.hdc = None;
                        self.phase = UnitPhase::Selector;
                    }
                }
                true
            }
            UnitPhase::Selector => {
                self.cycles += 1;
                self.selector_cycles_left -= 1;
                if self.selector_cycles_left == 0 {
                    self.selector_done = true;
                    self.phase = UnitPhase::Drain {
                        remaining: self.drain_total,
                    };
                }
                true
            }
            UnitPhase::Drain { remaining } => {
                self.cycles += 1;
                self.phase = if remaining > 1 {
                    UnitPhase::Drain {
                        remaining: remaining - 1,
                    }
                } else {
                    UnitPhase::Done
                };
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdc::run_pair;

    fn toy_pair(salt: usize) -> (Sequence, Sequence, Qual) {
        let cons: Sequence = (0..120)
            .map(|i| {
                ir_genome::Base::from_index(
                    (((i * 7 + salt) as u64).wrapping_mul(0x9e37_79b9) >> 7) as usize % 4,
                )
            })
            .collect();
        let read = cons.slice(salt % 50, salt % 50 + 40);
        let quals = Qual::uniform(30, 40).unwrap();
        (cons, read, quals)
    }

    #[test]
    fn fsm_matches_closed_form_serial() {
        for salt in 0..20 {
            let (cons, read, quals) = toy_pair(salt);
            let cfg = HdcConfig::serial();
            let expected = run_pair(&cons, &read, &quals, cfg);
            let mut fsm = HdcFsm::new(&cons, &read, &quals, cfg);
            while fsm.step() {}
            assert_eq!(fsm.result(), Some(expected.min), "salt {salt}");
            assert_eq!(fsm.cycles(), expected.cycles, "salt {salt}");
            assert_eq!(fsm.comparisons(), expected.comparisons, "salt {salt}");
        }
    }

    #[test]
    fn fsm_matches_closed_form_data_parallel() {
        for salt in 0..20 {
            let (cons, read, quals) = toy_pair(salt);
            let cfg = HdcConfig::data_parallel();
            let expected = run_pair(&cons, &read, &quals, cfg);
            let mut fsm = HdcFsm::new(&cons, &read, &quals, cfg);
            while fsm.step() {}
            assert_eq!(fsm.result(), Some(expected.min), "salt {salt}");
            assert_eq!(fsm.cycles(), expected.cycles, "salt {salt}");
            assert_eq!(fsm.comparisons(), expected.comparisons, "salt {salt}");
        }
    }

    #[test]
    fn step_returns_false_only_when_done() {
        let (cons, read, quals) = toy_pair(3);
        let mut fsm = HdcFsm::new(&cons, &read, &quals, HdcConfig::serial());
        assert!(fsm.result().is_none());
        let mut steps = 0u64;
        while fsm.step() {
            steps += 1;
            assert!(steps < 1_000_000, "FSM must terminate");
        }
        assert_eq!(steps, fsm.cycles());
        assert!(!fsm.step(), "done state is terminal");
        assert!(fsm.result().is_some());
    }

    #[test]
    fn selector_fsm_matches_formula_and_function() {
        use crate::selector::{run_selector, selector_cycles};
        use ir_core::{MinWhdGrid, OpCounts};
        use ir_genome::{Qual, Read, RealignmentTarget};

        let target = RealignmentTarget::builder(20)
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
            .unwrap();
        let mut ops = OpCounts::default();
        let grid = MinWhdGrid::compute(&target, true, &mut ops);

        let expected = run_selector(&grid, 20);
        let mut fsm = SelectorFsm::new(&grid, 20);
        assert!(fsm.best().is_none());
        while fsm.step() {}
        assert_eq!(fsm.cycles(), selector_cycles(3, 2));
        assert_eq!(fsm.cycles(), expected.cycles);
        assert_eq!(fsm.best(), Some(expected.best));
        assert_eq!(fsm.outcomes().unwrap(), expected.outcomes.as_slice());
    }

    #[test]
    fn unit_fsm_matches_simulate_target() {
        use crate::unit::simulate_target;
        use ir_genome::{Qual, Read, RealignmentTarget};

        // A small but non-trivial target: 3 consensuses, 4 reads.
        let reference: Sequence = (0..96).map(toy_base_pub).collect();
        let mut builder = RealignmentTarget::builder(500)
            .reference(reference.clone())
            .consensus((0..90).map(toy_base_pub).collect::<Sequence>())
            .consensus((0..96).map(|i| toy_base_pub(i + 3)).collect::<Sequence>());
        for j in 0..4 {
            let off = 7 * j;
            builder = builder.read(
                Read::new(
                    format!("r{j}"),
                    reference.slice(off, off + 30),
                    Qual::uniform(33, 30).unwrap(),
                    off as u64,
                )
                .unwrap(),
            );
        }
        let target = builder.build().unwrap();

        for params in [crate::FpgaParams::serial(), crate::FpgaParams::iracc()] {
            let expected = simulate_target(&target, &params);
            let mut fsm = UnitFsm::new(&target, &params);
            assert!(!fsm.is_done());
            while fsm.step() {}
            assert!(fsm.is_done());
            assert_eq!(
                fsm.cycles(),
                expected.cycles.total(),
                "lanes {}",
                params.lanes
            );
            assert_eq!(fsm.grid().expect("grid complete"), expected.grid);
        }
    }

    fn toy_base_pub(i: usize) -> ir_genome::Base {
        let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
        ir_genome::Base::from_index((h % 4) as usize)
    }

    #[test]
    fn selector_fsm_reference_only_grid() {
        use ir_core::{MinWhd, MinWhdGrid};
        let cell = |whd| MinWhd { whd, offset: 0 };
        let grid = MinWhdGrid::from_cells(1, 3, vec![cell(5), cell(6), cell(7)]);
        let mut fsm = SelectorFsm::new(&grid, 0);
        while fsm.step() {}
        // Only the final pass: one cycle per read, nothing realigned.
        assert_eq!(fsm.cycles(), 3);
        assert_eq!(fsm.best(), Some(0));
        assert!(fsm.outcomes().unwrap().iter().all(|o| !o.realigned()));
    }

    #[test]
    fn setup_cycles_are_stepped() {
        let (cons, read, quals) = toy_pair(5);
        let cfg = HdcConfig {
            pair_overhead_cycles: 4,
            ..HdcConfig::serial()
        };
        let mut fsm = HdcFsm::new(&cons, &read, &quals, cfg);
        for _ in 0..4 {
            assert!(fsm.step());
            assert_eq!(fsm.comparisons(), 0, "setup issues no comparisons");
        }
        assert!(fsm.step());
        assert!(fsm.comparisons() > 0);
    }
}
