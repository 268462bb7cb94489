//! The host control program's functional path.
//!
//! The paper's control programs "1) malloc input/output arrays in the
//! host memory, 2) transfer large data chunks from the host to the
//! FPGA-attached DRAM ..., 3) configure and start the accelerators one
//! unit at a time ..., and 4) wait for responses and configure and start
//! the units that are finished with the previous task" (§V-A).
//!
//! [`crate::system::AcceleratedSystem`] models that loop's *timing*; this
//! module executes it *functionally*: every target really is encoded into
//! host buffer images, configured through RoCC wire commands routed via
//! the MMIO queues, executed on an [`IrUnit`], and read back by decoding
//! the output buffers. It is the strongest end-to-end check that the ISA,
//! the buffer layout, the codec and the datapath compose correctly.

use ir_core::{IndelRealigner, ReadOutcome};
use ir_genome::RealignmentTarget;

use crate::dma::DmaParams;
use crate::fault::{FaultCounts, FaultPlan};
use crate::isa::IrCommand;
use crate::layout::{decode_outputs, encode_outputs, HostBuffers};
use crate::mmio::{MmioHub, UnitResponse};
use crate::params::FpgaParams;
use crate::unit::{IrUnit, UnitCycles};
use crate::FpgaError;

/// The outcome of one target driven through the full functional path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverRun {
    /// Unit that executed the target (the last unit attempted, for
    /// software-fallback targets).
    pub unit_id: usize,
    /// Decoded per-read outcomes (from the output buffer images).
    pub outcomes: Vec<ReadOutcome>,
    /// Cycle breakdown reported by the unit (zero for software-fallback
    /// targets — the work left the fabric).
    pub cycles: UnitCycles,
    /// Whether the target exhausted its hardware retries and was
    /// realigned by the `ir-core` software path instead.
    pub via_fallback: bool,
}

/// Host-side recovery policy: what the control program does when the
/// hardware misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Cycle budget the watchdog grants one dispatched target before
    /// declaring it hung (covers a lost response or a wedged FSM).
    pub watchdog_cycles: u64,
    /// Hardware retries per target before giving up on the fabric.
    pub max_retries: u32,
    /// Backoff before retry *k* is `backoff_base_cycles << k` host
    /// cycles (lets a transiently congested hub drain).
    pub backoff_base_cycles: u64,
    /// Fraction of targets whose read-back is verified byte-for-byte
    /// against the golden model (1.0 = every target; silent corruption
    /// is impossible only at 1.0).
    pub verify_rate: f64,
    /// Failures attributed to one unit before it is quarantined and
    /// receives no further targets. The last healthy unit is never
    /// quarantined.
    pub quarantine_threshold: u32,
    /// Realign targets that exhaust hardware retries with the `ir-core`
    /// software path, so a run always completes. When off, the driver
    /// returns the last hardware error instead. The timing model
    /// ([`AcceleratedSystem::run_resilient`](crate::AcceleratedSystem::run_resilient))
    /// has no error path and falls back either way.
    pub software_fallback: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            // ~0.5 s at 125 MHz — far above any single target's cycles.
            watchdog_cycles: 1 << 26,
            max_retries: 3,
            backoff_base_cycles: 4096,
            verify_rate: 1.0,
            quarantine_threshold: 3,
            software_fallback: true,
        }
    }
}

/// What the resilience layer saw and did over one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResilienceReport {
    /// Faults the plan actually injected (ground truth to reconcile the
    /// detection counters against).
    pub faults: FaultCounts,
    /// DMA transfers that failed (timeout or truncation).
    pub dma_faults: u64,
    /// Watchdog expirations waiting on a response.
    pub timeouts: u64,
    /// Read-backs rejected as corrupt (decode error or golden-model
    /// verification mismatch).
    pub corrupt_detected: u64,
    /// Units caught hung and reset.
    pub unit_hangs: u64,
    /// Stale or duplicate responses drained and discarded.
    pub stale_responses: u64,
    /// Hardware retries issued.
    pub retries: u64,
    /// Targets whose hardware attempts all failed. They fall back to the
    /// software path; with [`ResiliencePolicy::software_fallback`] off the
    /// driver returns the error instead, after counting them here.
    pub fallbacks: u64,
    /// Units quarantined during the run.
    pub quarantined_units: Vec<usize>,
    /// Targets that completed on hardware after at least one retry.
    pub recovered_targets: u64,
    /// Compute cycles of the eventual successful attempt of recovered
    /// targets (work the retry policy salvaged for the fabric).
    pub recovered_cycles: u64,
    /// Cycles burned on failed attempts, watchdog waits and backoff.
    pub lost_cycles: u64,
}

impl ResilienceReport {
    /// Whether the run saw no faults and took no recovery action.
    pub fn is_clean(&self) -> bool {
        self == &ResilienceReport::default()
    }

    /// The first reconciliation identity this report breaks, if any. Each
    /// failed transfer, dropped response, duplicated response and hang
    /// that [`Self::faults`] says was injected is counted once, by where
    /// it happened.
    pub fn broken_identity(&self) -> Option<&'static str> {
        let f = &self.faults;
        if self.dma_faults != f.dma_timeouts + f.dma_truncations {
            Some("dma_faults == faults.dma_timeouts + faults.dma_truncations")
        } else if self.timeouts != f.responses_dropped {
            Some("timeouts == faults.responses_dropped")
        } else if self.stale_responses != f.responses_duplicated {
            Some("stale_responses == faults.responses_duplicated")
        } else if self.unit_hangs != f.unit_hangs {
            Some("unit_hangs == faults.unit_hangs")
        } else {
            None
        }
    }

    /// Folds another report into this one (summing every tally and
    /// unioning the quarantined-unit set), so a layer that issues many
    /// smaller runs against the same fabric — the `ir-serve` shard pool
    /// dispatches one [`run_resilient`](crate::AcceleratedSystem::run_resilient)
    /// call per batch — can publish one aggregate report.
    pub fn absorb(&mut self, other: &ResilienceReport) {
        self.faults.dma_timeouts += other.faults.dma_timeouts;
        self.faults.dma_truncations += other.faults.dma_truncations;
        self.faults.responses_dropped += other.faults.responses_dropped;
        self.faults.responses_duplicated += other.faults.responses_duplicated;
        self.faults.unit_hangs += other.faults.unit_hangs;
        self.faults.output_bit_flips += other.faults.output_bit_flips;
        self.dma_faults += other.dma_faults;
        self.timeouts += other.timeouts;
        self.corrupt_detected += other.corrupt_detected;
        self.unit_hangs += other.unit_hangs;
        self.stale_responses += other.stale_responses;
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        for &unit in &other.quarantined_units {
            if !self.quarantined_units.contains(&unit) {
                self.quarantined_units.push(unit);
            }
        }
        self.quarantined_units.sort_unstable();
        self.recovered_targets += other.recovered_targets;
        self.recovered_cycles += other.recovered_cycles;
        self.lost_cycles += other.lost_cycles;
    }

    /// Publishes every field of this report into `counters` under the
    /// `resilience/` block, so the telemetry snapshot is the single place
    /// downstream tooling reads fault/recovery tallies from.
    pub fn record_into(&self, counters: &mut ir_telemetry::PerfCounters) {
        counters.set("resilience/injected_dma_timeouts", self.faults.dma_timeouts);
        counters.set(
            "resilience/injected_dma_truncations",
            self.faults.dma_truncations,
        );
        counters.set(
            "resilience/injected_responses_dropped",
            self.faults.responses_dropped,
        );
        counters.set(
            "resilience/injected_responses_duplicated",
            self.faults.responses_duplicated,
        );
        counters.set("resilience/injected_unit_hangs", self.faults.unit_hangs);
        counters.set(
            "resilience/injected_output_bit_flips",
            self.faults.output_bit_flips,
        );
        counters.set("resilience/injected_total", self.faults.total());
        counters.set("resilience/dma_faults", self.dma_faults);
        counters.set("resilience/timeouts", self.timeouts);
        counters.set("resilience/corrupt_detected", self.corrupt_detected);
        counters.set("resilience/unit_hangs", self.unit_hangs);
        counters.set("resilience/stale_responses", self.stale_responses);
        counters.set("resilience/retries", self.retries);
        counters.set("resilience/fallbacks", self.fallbacks);
        counters.set(
            "resilience/quarantined_units",
            self.quarantined_units.len() as u64,
        );
        counters.set("resilience/recovered_targets", self.recovered_targets);
        counters.set("resilience/recovered_cycles", self.recovered_cycles);
        counters.set("resilience/lost_cycles", self.lost_cycles);
    }
}

/// Why one hardware attempt at a target failed; [`Recovery::resolve`]
/// does all the accounting that follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Failure {
    /// The PCIe transfer timed out or delivered short (not the unit's
    /// fault).
    Dma,
    /// The unit's FSM hung; the watchdog burns its whole budget noticing.
    Hung,
    /// The completion response was lost: `cycles` of finished compute
    /// are stranded and the watchdog expires.
    Dropped { cycles: u64 },
    /// The read-back was rejected: `cycles` of compute are discarded.
    Corrupt { cycles: u64 },
    /// The target can never run as configured: no retry.
    Permanent,
}

/// What became of one target after [`Recovery::resolve`].
#[derive(Debug)]
pub(crate) enum Resolved<T> {
    /// An attempt on the fabric succeeded.
    Hardware(T),
    /// Every attempt failed and [`ResiliencePolicy::software_fallback`]
    /// sends the target to the software path.
    Software,
    /// Every attempt failed and the policy forbids the software path.
    Failed,
}

/// The host's recovery state machine, one per sea of units, shared by
/// [`HostDriver`] and the timing model
/// ([`AcceleratedSystem::run_resilient`](crate::AcceleratedSystem::run_resilient)).
/// It owns the per-unit failure counts and quarantine flags, and it is
/// the only reader of the retry, backoff, quarantine and fallback knobs
/// of [`ResiliencePolicy`]. Each side brings only its own attempt.
#[derive(Debug)]
pub(crate) struct Recovery {
    failures: Vec<u32>,
    quarantined: Vec<bool>,
}

impl Recovery {
    pub(crate) fn new(units: usize) -> Self {
        Recovery {
            failures: vec![0; units],
            quarantined: vec![false; units],
        }
    }

    /// Whether `unit` may still receive targets.
    pub(crate) fn healthy(&self, unit: usize) -> bool {
        !self.quarantined[unit]
    }

    /// First healthy unit at or after `preferred`, wrapping. There always
    /// is one: the last healthy unit is never quarantined.
    pub(crate) fn first_healthy(&self, preferred: usize) -> usize {
        let n = self.quarantined.len();
        (0..n)
            .map(|k| (preferred + k) % n)
            .find(|&u| self.healthy(u))
            .expect("the last healthy unit is never quarantined")
    }

    /// Plays the recovery loop for one target: up to `1 + max_retries`
    /// attempts, each on the unit `pick` names. `attempt` runs one try on
    /// a unit and returns its value and compute cycles, or why it failed
    /// (it counts stale responses itself).
    ///
    /// - A success clears the unit's failure count and, after a retry,
    ///   counts a recovered target and its cycles.
    /// - A failure is counted by kind and charges its lost cycles: the
    ///   watchdog budget for a hang or a dropped response, plus the
    ///   stranded or discarded compute. A hang, a dropped response or a
    ///   corrupt read-back blames the unit, which is quarantined at
    ///   `quarantine_threshold` failures unless it is already quarantined
    ///   or the last healthy unit. Unless the failure is permanent, retry
    ///   *k* waits `backoff_base_cycles << k`.
    /// - A target whose attempts all fail counts one fallback whatever
    ///   the policy; [`ResiliencePolicy::software_fallback`] picks
    ///   between [`Resolved::Software`] and [`Resolved::Failed`].
    pub(crate) fn resolve<T>(
        &mut self,
        policy: &ResiliencePolicy,
        report: &mut ResilienceReport,
        mut pick: impl FnMut(&Self) -> usize,
        mut attempt: impl FnMut(usize, &mut ResilienceReport) -> Result<(T, u64), Failure>,
    ) -> Resolved<T> {
        for retry in 0..=policy.max_retries {
            let unit = pick(self);
            let failure = match attempt(unit, report) {
                Ok((value, cycles)) => {
                    self.failures[unit] = 0;
                    if retry > 0 {
                        report.recovered_targets += 1;
                        report.recovered_cycles += cycles;
                    }
                    return Resolved::Hardware(value);
                }
                Err(failure) => failure,
            };
            let watchdog = policy.watchdog_cycles;
            let (count, lost) = match failure {
                Failure::Dma => (&mut report.dma_faults, 0),
                Failure::Hung => (&mut report.unit_hangs, watchdog),
                Failure::Dropped { cycles } => (&mut report.timeouts, cycles + watchdog),
                Failure::Corrupt { cycles } => (&mut report.corrupt_detected, cycles),
                Failure::Permanent => break,
            };
            *count += 1;
            report.lost_cycles += lost;
            if failure != Failure::Dma {
                self.failures[unit] += 1;
                let healthy = self.quarantined.iter().filter(|&&q| !q).count();
                if self.failures[unit] >= policy.quarantine_threshold
                    && self.healthy(unit)
                    && healthy > 1
                {
                    self.quarantined[unit] = true;
                    report.quarantined_units.push(unit);
                }
            }
            if retry < policy.max_retries {
                report.retries += 1;
                report.lost_cycles += policy.backoff_base_cycles << retry;
            }
        }
        report.fallbacks += 1;
        if policy.software_fallback {
            Resolved::Software
        } else {
            Resolved::Failed
        }
    }
}

/// A target's output images as the host accepted them from [`read_back`].
pub(crate) enum ReadBack {
    /// The flag and position images as the unit wrote them.
    Intact(Vec<u8>, Vec<u8>),
    /// The decode of a flipped image that sampled verification missed.
    Undetected(Vec<ReadOutcome>),
}

/// Reads `outcomes` back through the output images of a target at
/// `start`, where the plan may flip one bit. A flipped image never equals
/// the golden one and an intact one always does, so sampled verification
/// draws its coin ([`FaultPlan::sample_verify`]) only for a flipped image
/// that decodes, the one read-back whose verdict depends on it.
///
/// # Errors
///
/// A flipped image the host rejects: the decode error of one that no
/// longer decodes, or [`FpgaError::CorruptOutput`] naming the first
/// flipped read of one that sampled verification catches at
/// `verify_rate`.
pub(crate) fn read_back(
    plan: &mut FaultPlan,
    verify_rate: f64,
    outcomes: &[ReadOutcome],
    start: u64,
) -> Result<ReadBack, FpgaError> {
    let (mut flags, mut positions) = encode_outputs(outcomes, start);
    if !plan.corrupt_outputs(&mut flags, &mut positions) {
        return Ok(ReadBack::Intact(flags, positions));
    }
    let corrupt = decode_outputs(&flags, &positions, outcomes.len(), start)?;
    if !plan.sample_verify(verify_rate) {
        return Ok(ReadBack::Undetected(corrupt));
    }
    let (want_flags, want_positions) = encode_outputs(outcomes, start);
    let flipped = (0..outcomes.len()).find(|&j| {
        flags[j] != want_flags[j] || positions[4 * j..][..4] != want_positions[4 * j..][..4]
    });
    Err(FpgaError::CorruptOutput {
        detail: "sampled verification caught a flipped read",
        observed: flipped.unwrap_or_default() as u64,
    })
}

/// The hardware one driver commands: the units behind one MMIO hub and
/// the PCIe DMA path.
#[derive(Debug)]
struct Fabric {
    params: FpgaParams,
    hub: MmioHub,
    units: Vec<IrUnit>,
    dma: DmaParams,
}

impl Fabric {
    /// One hardware attempt on `unit_id`: build the buffer images, send
    /// them over DMA, issue the RoCC command sequence through the MMIO hub
    /// and router, execute, poll the response and read back the output
    /// buffers, with every fault-injection site of `plan` armed. A hung
    /// unit is reset. A failure carries its kind and the error it raised.
    fn attempt(
        &mut self,
        unit_id: usize,
        target: &RealignmentTarget,
        plan: &mut FaultPlan,
        policy: &ResiliencePolicy,
        report: &mut ResilienceReport,
    ) -> Result<DriverRun, (Failure, FpgaError)> {
        let permanent = |error| (Failure::Permanent, error);

        // Steps 1–2: host arrays and the PCIe DMA transfer, which can
        // time out or truncate.
        let buffers = HostBuffers::from_target(target);
        buffers.check_fit().map_err(permanent)?;
        self.dma
            .transfer_time_checked(buffers.payload_bytes(), plan)
            .map_err(|error| (Failure::Dma, error))?;

        // Step 3: configure and start through the MMIO command queue; the
        // router pops and dispatches to the addressed unit.
        for cmd in IrUnit::command_sequence(target, unit_id as u8) {
            self.hub.push_command(cmd.encode()).map_err(permanent)?;
            let wire = self
                .hub
                .pop_command()
                .ok_or(FpgaError::NotConfigured("command queue empty at dispatch"))
                .map_err(permanent)?;
            let decoded = IrCommand::decode(wire).map_err(permanent)?;
            self.units[unit_id].apply(decoded).map_err(permanent)?;
        }

        // Execute; the FSM can hang stuck-busy, and the host resets it
        // once the watchdog fires.
        let run = match self.units[unit_id].execute_with_faults(target, &self.params, plan) {
            Ok(run) => run,
            Err(error @ FpgaError::UnitHung { .. }) => {
                self.units[unit_id].reset();
                return Err((Failure::Hung, error));
            }
            Err(error) => return Err(permanent(error)),
        };
        let cycles = run.cycles.total();

        // The hub can drop or duplicate the completion response.
        self.hub
            .push_response_faulty(UnitResponse { unit_id, cycles }, plan);

        // Step 4: poll for the response, then drain the queue: anything
        // left, a duplicate included, is stale and counted as it arrives,
        // so every attempt leaves the queue empty and the next one polls
        // only its own. A dropped response means the work completed but
        // the result is stranded — the watchdog expires.
        let response = self.hub.poll_response();
        while self.hub.poll_response().is_some() {
            report.stale_responses += 1;
        }
        let Some(response) = response else {
            let waited_s = policy.watchdog_cycles as f64 * self.params.cycle_time_s();
            return Err((
                Failure::Dropped { cycles },
                FpgaError::Timeout {
                    site: "mmio response queue",
                    waited_s,
                },
            ));
        };

        // Read back and decode the output buffers.
        let start = target.start_pos();
        let outcomes = match read_back(plan, policy.verify_rate, &run.outcomes, start) {
            Ok(ReadBack::Intact(flags, positions)) => {
                decode_outputs(&flags, &positions, target.num_reads(), start)
            }
            Ok(ReadBack::Undetected(corrupt)) => Ok(corrupt),
            Err(error) => Err(error),
        }
        .map_err(|error| (Failure::Corrupt { cycles }, error))?;

        Ok(DriverRun {
            unit_id: response.unit_id,
            outcomes,
            cycles: run.cycles,
            via_fallback: false,
        })
    }
}

/// A host driver bound to a sea of units through one MMIO hub.
#[derive(Debug)]
pub struct HostDriver {
    fabric: Fabric,
    recovery: Recovery,
}

impl HostDriver {
    /// Creates a driver for `params.num_units` units.
    ///
    /// # Errors
    ///
    /// Propagates floorplan/timing validation from
    /// [`crate::resources::validate`].
    pub fn new(params: FpgaParams) -> Result<Self, FpgaError> {
        crate::resources::validate(&params)?;
        let num_units = params.num_units;
        Ok(HostDriver {
            fabric: Fabric {
                params,
                hub: MmioHub::new(64),
                units: (0..num_units).map(IrUnit::new).collect(),
                dma: DmaParams::default(),
            },
            recovery: Recovery::new(num_units),
        })
    }

    /// Number of units under this driver.
    pub fn num_units(&self) -> usize {
        self.fabric.units.len()
    }

    /// Units currently quarantined by the resilience layer.
    pub fn quarantined_units(&self) -> Vec<usize> {
        (0..self.num_units())
            .filter(|&u| !self.recovery.healthy(u))
            .collect()
    }

    fn check_unit(&self, unit_id: usize) -> Result<(), FpgaError> {
        if unit_id < self.num_units() {
            Ok(())
        } else {
            Err(FpgaError::NoSuchUnit {
                unit: unit_id,
                available: self.num_units(),
            })
        }
    }

    /// Drives one target end to end on `unit_id`: build buffer images,
    /// issue the RoCC command sequence through the MMIO hub and router,
    /// execute, post and poll the response, and decode the output buffers.
    ///
    /// # Errors
    ///
    /// - [`FpgaError::NoSuchUnit`] for an out-of-range unit.
    /// - [`FpgaError::BufferOverflow`] if the target exceeds the unit's
    ///   buffers.
    /// - Any configuration error surfaced by the unit's command FSM.
    pub fn run_target(
        &mut self,
        unit_id: usize,
        target: &RealignmentTarget,
    ) -> Result<DriverRun, FpgaError> {
        self.check_unit(unit_id)?;
        self.fabric
            .attempt(
                unit_id,
                target,
                &mut FaultPlan::none(),
                &ResiliencePolicy::default(),
                &mut ResilienceReport::default(),
            )
            .map_err(|(_, error)| error)
    }

    /// Drives a batch of targets round-robin across all units.
    ///
    /// # Errors
    ///
    /// Fails fast on the first target that errors.
    pub fn run_batch(
        &mut self,
        targets: &[RealignmentTarget],
    ) -> Result<Vec<DriverRun>, FpgaError> {
        targets
            .iter()
            .enumerate()
            .map(|(i, t)| self.run_target(i % self.num_units(), t))
            .collect()
    }

    /// Drives one target with the full resilience policy: bounded retry
    /// with exponential backoff, watchdog recovery of hung units and
    /// lost responses, integrity-checked read-back, quarantine of
    /// repeatedly failing units, and (if enabled) software fallback so
    /// the target always completes. Each attempt goes to the first
    /// healthy unit at or after `unit_id`. Recovery actions accumulate
    /// into `report`.
    ///
    /// With [`FaultPlan::none`] this is functionally identical to
    /// [`Self::run_target`] and the report stays clean.
    ///
    /// # Errors
    ///
    /// Only when every hardware retry failed *and*
    /// [`ResiliencePolicy::software_fallback`] is off (the last hardware
    /// error is returned, and the target is counted in
    /// [`ResilienceReport::fallbacks`]), or for out-of-range `unit_id`.
    pub fn run_target_resilient(
        &mut self,
        unit_id: usize,
        target: &RealignmentTarget,
        plan: &mut FaultPlan,
        policy: &ResiliencePolicy,
        report: &mut ResilienceReport,
    ) -> Result<DriverRun, FpgaError> {
        self.check_unit(unit_id)?;
        let HostDriver { fabric, recovery } = self;
        let mut last_failure = None;
        let resolved = recovery.resolve(
            policy,
            report,
            |r| r.first_healthy(unit_id),
            |unit, report| match fabric.attempt(unit, target, plan, policy, report) {
                Ok(run) => {
                    let cycles = run.cycles.total();
                    Ok((run, cycles))
                }
                Err((failure, error)) => {
                    last_failure = Some((unit, error));
                    Err(failure)
                }
            },
        );
        match (resolved, last_failure) {
            (Resolved::Hardware(run), _) => Ok(run),
            (Resolved::Software, Some((unit_id, _))) => Ok(DriverRun {
                unit_id,
                outcomes: IndelRealigner::new().realign_outcomes(target),
                cycles: UnitCycles::default(),
                via_fallback: true,
            }),
            (Resolved::Failed, Some((_, error))) => Err(error),
            (_, None) => unreachable!("an exhausted target failed at least once"),
        }
    }

    /// Drives a batch of targets round-robin with the resilience policy.
    /// The run always completes when software fallback is on; the report
    /// records every fault seen and recovery action taken, with the
    /// plan's injection counts snapshotted into
    /// [`ResilienceReport::faults`].
    ///
    /// # Errors
    ///
    /// Fails fast on the first unrecoverable target (fallback disabled).
    pub fn run_batch_resilient(
        &mut self,
        targets: &[RealignmentTarget],
        plan: &mut FaultPlan,
        policy: &ResiliencePolicy,
    ) -> Result<(Vec<DriverRun>, ResilienceReport), FpgaError> {
        let mut report = ResilienceReport::default();
        let mut runs = Vec::with_capacity(targets.len());
        for (i, target) in targets.iter().enumerate() {
            let preferred = i % self.num_units();
            runs.push(self.run_target_resilient(preferred, target, plan, policy, &mut report)?);
        }
        report.faults = plan.counts();
        Ok((runs, report))
    }
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
    fn full_functional_path_matches_golden() {
        let mut driver = HostDriver::new(FpgaParams::iracc()).unwrap();
        let target = figure4_target();
        let run = driver.run_target(3, &target).unwrap();
        assert_eq!(run.unit_id, 3);
        let golden = IndelRealigner::new().realign(&target);
        // The decoded outcomes carry realign decisions and positions (the
        // offset for non-realigned reads is not transmitted).
        for (got, want) in run.outcomes.iter().zip(golden.outcomes()) {
            assert_eq!(got.realigned(), want.realigned());
            assert_eq!(got.new_pos(), want.new_pos());
        }
    }

    #[test]
    fn batch_round_robins_units() {
        let params = FpgaParams {
            num_units: 4,
            ..FpgaParams::iracc()
        };
        let mut driver = HostDriver::new(params).unwrap();
        let targets = vec![figure4_target(); 6];
        let runs = driver.run_batch(&targets).unwrap();
        let units: Vec<usize> = runs.iter().map(|r| r.unit_id).collect();
        assert_eq!(units, vec![0, 1, 2, 3, 0, 1]);
        for unit in &driver.fabric.units[..2] {
            assert_eq!(unit.targets_completed(), 2);
        }
    }

    #[test]
    fn out_of_range_unit_is_rejected() {
        let params = FpgaParams {
            num_units: 2,
            ..FpgaParams::iracc()
        };
        let mut driver = HostDriver::new(params).unwrap();
        let err = driver.run_target(5, &figure4_target()).unwrap_err();
        assert!(matches!(
            err,
            FpgaError::NoSuchUnit {
                unit: 5,
                available: 2
            }
        ));
    }

    #[test]
    fn driver_reports_cycles() {
        let mut driver = HostDriver::new(FpgaParams::serial()).unwrap();
        let run = driver.run_target(0, &figure4_target()).unwrap();
        assert!(run.cycles.total() > 0);
        assert!(run.cycles.hdc > run.cycles.selector);
    }

    #[test]
    fn resilient_run_with_inert_plan_matches_plain_run() {
        let target = figure4_target();
        let mut plain = HostDriver::new(FpgaParams::iracc()).unwrap();
        let want = plain.run_target(3, &target).unwrap();

        let mut driver = HostDriver::new(FpgaParams::iracc()).unwrap();
        let mut plan = FaultPlan::none();
        let mut report = ResilienceReport::default();
        let got = driver
            .run_target_resilient(
                3,
                &target,
                &mut plan,
                &ResiliencePolicy::default(),
                &mut report,
            )
            .unwrap();
        assert_eq!(got, want);
        assert!(report.is_clean(), "clean run, clean report: {report:?}");
    }

    #[test]
    fn permanent_hangs_fall_back_to_software() {
        use crate::fault::FaultRates;
        let target = figure4_target();
        let mut driver = HostDriver::new(FpgaParams::iracc()).unwrap();
        let mut plan = FaultPlan::seeded(
            0,
            FaultRates {
                unit_hang: 1.0,
                ..FaultRates::none()
            },
        );
        let policy = ResiliencePolicy::default();
        let mut report = ResilienceReport::default();
        let run = driver
            .run_target_resilient(0, &target, &mut plan, &policy, &mut report)
            .unwrap();
        assert!(run.via_fallback);
        assert_eq!(run.cycles.total(), 0);
        assert_eq!(
            run.outcomes,
            IndelRealigner::new().realign_outcomes(&target)
        );
        assert_eq!(report.fallbacks, 1);
        assert_eq!(report.unit_hangs, u64::from(policy.max_retries) + 1);
        assert_eq!(report.retries, u64::from(policy.max_retries));
        assert!(report.lost_cycles > 0);
        // Every attempt hung a unit; the repeat offenders are quarantined.
        assert!(!driver.quarantined_units().is_empty());
    }

    #[test]
    fn fallback_disabled_surfaces_the_hardware_error() {
        use crate::fault::FaultRates;
        let target = figure4_target();
        let mut driver = HostDriver::new(FpgaParams::iracc()).unwrap();
        let mut plan = FaultPlan::seeded(
            7,
            FaultRates {
                response_drop: 1.0,
                ..FaultRates::none()
            },
        );
        let policy = ResiliencePolicy {
            software_fallback: false,
            max_retries: 1,
            ..ResiliencePolicy::default()
        };
        let mut report = ResilienceReport::default();
        let err = driver
            .run_target_resilient(0, &target, &mut plan, &policy, &mut report)
            .unwrap_err();
        assert!(matches!(err, FpgaError::Timeout { .. }));
        assert_eq!(report.timeouts, 2);
    }

    #[test]
    fn corrupted_read_back_is_detected_and_retried() {
        use crate::fault::FaultRates;
        let target = figure4_target();
        let mut driver = HostDriver::new(FpgaParams::iracc()).unwrap();
        // Corrupt every read-back on the first tries; retries eventually
        // lose the race only if the rate stays 1.0 — so use 1.0 and let
        // fallback prove no corrupt result ever escapes.
        let mut plan = FaultPlan::seeded(
            21,
            FaultRates {
                output_bit_flip: 1.0,
                ..FaultRates::none()
            },
        );
        let mut report = ResilienceReport::default();
        let run = driver
            .run_target_resilient(
                0,
                &target,
                &mut plan,
                &ResiliencePolicy::default(),
                &mut report,
            )
            .unwrap();
        assert!(run.via_fallback);
        assert_eq!(
            run.outcomes,
            IndelRealigner::new().realign_outcomes(&target)
        );
        assert!(report.corrupt_detected > 0);
    }

    #[test]
    fn read_back_rejects_a_flip_by_decode_or_by_sampled_verification() {
        use crate::fault::FaultRates;
        let target = figure4_target();
        let golden = IndelRealigner::new().realign_outcomes(&target);
        let start = target.start_pos();
        let rates = FaultRates {
            output_bit_flip: 1.0,
            ..FaultRates::none()
        };
        let (mut decode, mut sampled) = (0, 0);
        for seed in 0..64 {
            let checked = read_back(&mut FaultPlan::seeded(seed, rates), 1.0, &golden, start);
            let unchecked = read_back(&mut FaultPlan::seeded(seed, rates), 0.0, &golden, start);
            match (checked, unchecked) {
                (
                    Err(FpgaError::CorruptOutput {
                        detail: "realign flag byte out of range",
                        observed,
                    }),
                    Err(_),
                ) => {
                    assert!(observed > 1);
                    decode += 1;
                }
                (
                    Err(FpgaError::CorruptOutput {
                        detail: "sampled verification caught a flipped read",
                        observed,
                    }),
                    Ok(ReadBack::Undetected(_)),
                ) => {
                    // Replay the seed's flip to find the read it hit.
                    let want = encode_outputs(&golden, start);
                    let (mut flags, mut positions) = want.clone();
                    FaultPlan::seeded(seed, rates).corrupt_outputs(&mut flags, &mut positions);
                    let byte =
                        |got: &[u8], want: &[u8]| got.iter().zip(want).position(|(a, b)| a != b);
                    let flipped =
                        byte(&flags, &want.0).or(byte(&positions, &want.1).map(|b| b / 4));
                    assert_eq!(Some(observed as usize), flipped, "seed {seed}");
                    sampled += 1;
                }
                _ => panic!("seed {seed}: a flipped image was accepted or misreported"),
            }
        }
        assert!(
            decode > 0 && sampled > 0,
            "{decode} decode, {sampled} sampled"
        );
    }

    #[test]
    fn batch_completes_under_moderate_fault_rates() {
        use crate::fault::FaultRates;
        let params = FpgaParams {
            num_units: 4,
            ..FpgaParams::iracc()
        };
        let mut driver = HostDriver::new(params).unwrap();
        let targets = vec![figure4_target(); 24];
        let mut plan = FaultPlan::seeded(5, FaultRates::uniform(0.05));
        let (runs, report) = driver
            .run_batch_resilient(&targets, &mut plan, &ResiliencePolicy::default())
            .unwrap();
        assert_eq!(runs.len(), targets.len());
        // Byte-identical to the golden model: compare the encoded output
        // images (decode does not transmit offsets of non-realigned
        // reads, so the images are the canonical representation).
        let golden = IndelRealigner::new().realign_outcomes(&targets[0]);
        let want = encode_outputs(&golden, targets[0].start_pos());
        for run in &runs {
            assert_eq!(
                encode_outputs(&run.outcomes, targets[0].start_pos()),
                want,
                "no silent corruption, ever"
            );
        }
        assert_eq!(report.faults, plan.counts());
    }

    #[test]
    fn absorb_sums_tallies_and_unions_quarantine() {
        let mut a = ResilienceReport {
            retries: 2,
            fallbacks: 1,
            lost_cycles: 100,
            quarantined_units: vec![3, 1],
            ..ResilienceReport::default()
        };
        a.faults.unit_hangs = 4;
        let mut b = ResilienceReport {
            retries: 5,
            timeouts: 7,
            quarantined_units: vec![1, 2],
            ..ResilienceReport::default()
        };
        b.faults.dma_timeouts = 6;
        a.absorb(&b);
        assert_eq!(a.retries, 7);
        assert_eq!(a.fallbacks, 1);
        assert_eq!(a.timeouts, 7);
        assert_eq!(a.lost_cycles, 100);
        assert_eq!(a.faults.unit_hangs, 4);
        assert_eq!(a.faults.dma_timeouts, 6);
        assert_eq!(a.quarantined_units, vec![1, 2, 3]);

        // Absorbing into a clean report reproduces the other exactly
        // (modulo quarantine ordering, which absorb normalizes).
        let mut clean = ResilienceReport::default();
        clean.absorb(&b);
        assert_eq!(clean, b);
    }

    #[test]
    fn quarantine_never_claims_the_last_unit() {
        use crate::fault::FaultRates;
        let params = FpgaParams {
            num_units: 2,
            ..FpgaParams::iracc()
        };
        let mut driver = HostDriver::new(params).unwrap();
        let targets = vec![figure4_target(); 16];
        let mut plan = FaultPlan::seeded(
            3,
            FaultRates {
                unit_hang: 1.0,
                ..FaultRates::none()
            },
        );
        let (runs, report) = driver
            .run_batch_resilient(&targets, &mut plan, &ResiliencePolicy::default())
            .unwrap();
        assert!(runs.iter().all(|r| r.via_fallback));
        assert!(driver.quarantined_units().len() < driver.num_units());
        assert_eq!(report.fallbacks, targets.len() as u64);
    }
}
