//! Seeded fault injection at the modeled hardware boundaries.
//!
//! A real F1 deployment fails in ways the cycle model's happy path never
//! exercises: a PCIe DMA descriptor chain stalls or delivers a short
//! payload, the AXI-Lite hub drops or duplicates a completion response
//! under pressure, a unit's FSM wedges mid-target, or an output buffer
//! comes back with flipped bits. [`FaultPlan`] injects exactly those
//! faults, from a seeded RNG so every run is reproducible, at the modules
//! that model the failing hardware ([`crate::dma`], [`crate::mmio`],
//! [`crate::unit`], [`crate::layout`]).
//!
//! The host-side recovery machinery that turns these faults back into
//! correct runs lives in [`crate::driver`] (functional path) and
//! [`crate::system`] (timing path). `FaultPlan::none()` is inert: it draws
//! nothing from any RNG, so fault-free runs are bit-identical to runs that
//! never heard of this module (asserted by `tests/resilience.rs`).

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fault rate that is not a probability: `NaN`, infinite, or outside
/// `[0, 1]`. Carries the offending site name and raw value so the message
/// pinpoints which knob is wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRateError {
    /// The [`FaultRates`] field that failed validation.
    pub site: &'static str,
    /// The value that field held.
    pub value: f64,
}

impl fmt::Display for FaultRateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault rate {} = {} is not a probability in [0, 1]",
            self.site, self.value
        )
    }
}

impl std::error::Error for FaultRateError {}

/// Per-site fault probabilities. Each is the chance the site fails on one
/// *event* (one transfer, one response, one target execution, one output
/// read-back), independent across events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// A PCIe DMA descriptor chain times out (no data arrives).
    pub dma_timeout: f64,
    /// A DMA transfer completes but delivers fewer bytes than requested.
    pub dma_truncation: f64,
    /// The MMIO hub loses a unit's completion response.
    pub response_drop: f64,
    /// The MMIO hub posts a unit's completion response twice.
    pub response_duplicate: f64,
    /// A unit's FSM hangs mid-target and sits stuck-busy.
    pub unit_hang: f64,
    /// The output buffer image suffers a single-bit flip.
    pub output_bit_flip: f64,
}

impl FaultRates {
    /// All rates zero.
    pub fn none() -> Self {
        FaultRates::uniform(0.0)
    }

    /// The same rate at every site.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate must be a probability"
        );
        FaultRates {
            dma_timeout: rate,
            dma_truncation: rate,
            response_drop: rate,
            response_duplicate: rate,
            unit_hang: rate,
            output_bit_flip: rate,
        }
    }

    /// The default study rates: every site fails once per ~thousand
    /// events — far above anything a healthy deployment shows, low enough
    /// that bounded retry recovers nearly everything.
    pub fn default_rates() -> Self {
        FaultRates::uniform(1e-3)
    }

    /// The rates as `(site, value)` pairs, in declaration order.
    fn sites(&self) -> [(&'static str, f64); 6] {
        [
            ("dma_timeout", self.dma_timeout),
            ("dma_truncation", self.dma_truncation),
            ("response_drop", self.response_drop),
            ("response_duplicate", self.response_duplicate),
            ("unit_hang", self.unit_hang),
            ("output_bit_flip", self.output_bit_flip),
        ]
    }

    /// Validates every rate, reporting the first degenerate one.
    ///
    /// A rate is degenerate when it is `NaN` or outside `[0, 1]` — either
    /// would previously have panicked deep inside [`FaultPlan::seeded`];
    /// callers assembling rates from untrusted input (CLI flags, fuzzer
    /// genomes, service configs) should check here first.
    ///
    /// # Errors
    ///
    /// [`FaultRateError`] naming the first out-of-range site.
    pub fn checked(&self) -> Result<(), FaultRateError> {
        for (site, value) in self.sites() {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultRateError { site, value });
            }
        }
        Ok(())
    }

    /// Forces every rate into `[0, 1]`: `NaN` becomes `0`, everything else
    /// saturates at the nearest bound. Use when a degenerate input should
    /// degrade gracefully rather than be rejected (the fuzzer's mutator
    /// does this so extreme mutations still produce runnable plans).
    pub fn clamped(&self) -> Self {
        let clamp = |p: f64| if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        FaultRates {
            dma_timeout: clamp(self.dma_timeout),
            dma_truncation: clamp(self.dma_truncation),
            response_drop: clamp(self.response_drop),
            response_duplicate: clamp(self.response_duplicate),
            unit_hang: clamp(self.unit_hang),
            output_bit_flip: clamp(self.output_bit_flip),
        }
    }

    /// Whether every rate is exactly zero — a plan built from such rates
    /// can never inject anything.
    pub fn is_vacuous(&self) -> bool {
        self.sites().iter().all(|&(_, p)| p == 0.0)
    }

    fn validate(&self) {
        if let Err(e) = self.checked() {
            panic!("{e}: {} must be a probability", e.site);
        }
    }
}

/// How many faults each site actually injected (not how many the rates
/// would predict) — the ground truth a [`crate::driver::ResilienceReport`]
/// is reconciled against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// DMA chains that timed out.
    pub dma_timeouts: u64,
    /// DMA chains that delivered short.
    pub dma_truncations: u64,
    /// Responses dropped by the hub.
    pub responses_dropped: u64,
    /// Responses duplicated by the hub.
    pub responses_duplicated: u64,
    /// Unit executions that hung.
    pub unit_hangs: u64,
    /// Output images with a flipped bit.
    pub output_bit_flips: u64,
}

impl FaultCounts {
    /// Total faults injected across all sites.
    pub fn total(&self) -> u64 {
        self.dma_timeouts
            + self.dma_truncations
            + self.responses_dropped
            + self.responses_duplicated
            + self.unit_hangs
            + self.output_bit_flips
    }
}

/// What one DMA transfer did under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaFault {
    /// The descriptor chain never completed.
    Timeout,
    /// The chain completed but moved only `delivered` of the requested
    /// bytes.
    Truncation {
        /// Bytes that actually arrived.
        delivered: u64,
    },
}

/// What the MMIO hub did with one completion response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseFault {
    /// Delivered normally.
    Delivered,
    /// Lost; the host's poll loop will spin until its watchdog fires.
    Dropped,
    /// Posted twice; the host must tolerate the stale duplicate.
    Duplicated,
}

/// A seeded fault-injection schedule.
///
/// One plan is threaded through a run; each injection site asks it
/// whether this event fails. [`FaultPlan::none`] never fails anything and
/// never touches an RNG.
///
/// # Example
///
/// ```
/// use ir_fpga::fault::{FaultPlan, FaultRates};
///
/// let mut plan = FaultPlan::seeded(7, FaultRates::uniform(1.0));
/// assert!(plan.dma_fault(1024).is_some());
/// assert!(FaultPlan::none().dma_fault(1024).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: Option<StdRng>,
    rates: FaultRates,
    counts: FaultCounts,
}

impl FaultPlan {
    /// The inert plan: injects nothing, draws nothing.
    pub fn none() -> Self {
        FaultPlan {
            rng: None,
            rates: FaultRates::none(),
            counts: FaultCounts::default(),
        }
    }

    /// A reproducible plan: the same seed and rates inject the same
    /// faults at the same events.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    pub fn seeded(seed: u64, rates: FaultRates) -> Self {
        rates.validate();
        FaultPlan {
            rng: Some(StdRng::seed_from_u64(seed)),
            rates,
            counts: FaultCounts::default(),
        }
    }

    /// Non-panicking [`FaultPlan::seeded`]: rejects degenerate rates as a
    /// value instead of aborting, and returns the inert plan for vacuous
    /// (all-zero) rates so a "fault injection on but rates zero" config
    /// stays bit-identical to a run with no plan at all.
    ///
    /// # Errors
    ///
    /// [`FaultRateError`] if any rate is `NaN` or outside `[0, 1]`.
    pub fn try_seeded(seed: u64, rates: FaultRates) -> Result<Self, FaultRateError> {
        rates.checked()?;
        if rates.is_vacuous() {
            return Ok(FaultPlan::none());
        }
        Ok(FaultPlan {
            rng: Some(StdRng::seed_from_u64(seed)),
            rates,
            counts: FaultCounts::default(),
        })
    }

    /// A seeded plan at [`FaultRates::default_rates`].
    pub fn with_default_rates(seed: u64) -> Self {
        FaultPlan::seeded(seed, FaultRates::default_rates())
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.rng.is_some()
    }

    /// The configured rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    fn fire(&mut self, p: f64) -> bool {
        match self.rng.as_mut() {
            None => false,
            Some(rng) => p > 0.0 && rng.random_bool(p),
        }
    }

    /// Site hook for [`crate::dma`]: does this transfer of `bytes` fail?
    pub fn dma_fault(&mut self, bytes: u64) -> Option<DmaFault> {
        if self.fire(self.rates.dma_timeout) {
            self.counts.dma_timeouts += 1;
            return Some(DmaFault::Timeout);
        }
        if bytes > 0 && self.fire(self.rates.dma_truncation) {
            self.counts.dma_truncations += 1;
            let delivered = self
                .rng
                .as_mut()
                .map(|rng| rng.random_range(0..bytes))
                .unwrap_or(0);
            return Some(DmaFault::Truncation { delivered });
        }
        None
    }

    /// Site hook for [`crate::mmio`]: what happens to this response?
    pub fn response_fault(&mut self) -> ResponseFault {
        if self.fire(self.rates.response_drop) {
            self.counts.responses_dropped += 1;
            ResponseFault::Dropped
        } else if self.fire(self.rates.response_duplicate) {
            self.counts.responses_duplicated += 1;
            ResponseFault::Duplicated
        } else {
            ResponseFault::Delivered
        }
    }

    /// Site hook for [`crate::unit`]: does this execution hang?
    pub fn unit_hangs(&mut self) -> bool {
        if self.fire(self.rates.unit_hang) {
            self.counts.unit_hangs += 1;
            true
        } else {
            false
        }
    }

    /// Site hook for [`crate::layout`] read-back: flips one random bit in
    /// the flag/position output images with probability
    /// [`FaultRates::output_bit_flip`]. Returns whether a bit flipped.
    pub fn corrupt_outputs(&mut self, flags: &mut [u8], positions: &mut [u8]) -> bool {
        let bits = (flags.len() + positions.len()) * 8;
        if bits == 0 || !self.fire(self.rates.output_bit_flip) {
            return false;
        }
        self.counts.output_bit_flips += 1;
        let bit = self
            .rng
            .as_mut()
            .map(|rng| rng.random_range(0..bits))
            .unwrap_or(0);
        let (byte, shift) = (bit / 8, bit % 8);
        if byte < flags.len() {
            flags[byte] ^= 1 << shift;
        } else {
            positions[byte - flags.len()] ^= 1 << shift;
        }
        true
    }

    /// Sampling decision for golden-model output verification: verify
    /// this target at `rate`? Always `true` at `rate >= 1` (including for
    /// inert plans, where nothing random is available to sample with).
    pub fn sample_verify(&mut self, rate: f64) -> bool {
        if rate >= 1.0 {
            return true;
        }
        self.fire(rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_injects_nothing() {
        let mut plan = FaultPlan::none();
        for _ in 0..1000 {
            assert!(plan.dma_fault(4096).is_none());
            assert_eq!(plan.response_fault(), ResponseFault::Delivered);
            assert!(!plan.unit_hangs());
        }
        let mut flags = [1u8, 0];
        let mut positions = [0u8; 8];
        assert!(!plan.corrupt_outputs(&mut flags, &mut positions));
        assert_eq!(flags, [1, 0]);
        assert_eq!(plan.counts().total(), 0);
        assert!(!plan.is_active());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let observe = |seed| {
            let mut plan = FaultPlan::seeded(seed, FaultRates::uniform(0.3));
            (0..200)
                .map(|_| {
                    (
                        plan.dma_fault(100),
                        plan.response_fault(),
                        plan.unit_hangs(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(observe(42), observe(42));
        assert_ne!(observe(42), observe(43));
    }

    #[test]
    fn rate_one_always_fires() {
        let mut plan = FaultPlan::seeded(0, FaultRates::uniform(1.0));
        assert!(matches!(plan.dma_fault(64), Some(DmaFault::Timeout)));
        assert_eq!(plan.response_fault(), ResponseFault::Dropped);
        assert!(plan.unit_hangs());
        let mut flags = [0u8];
        let mut positions = [0u8; 4];
        assert!(plan.corrupt_outputs(&mut flags, &mut positions));
        let flipped: u32 = flags
            .iter()
            .chain(positions.iter())
            .map(|b| b.count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flips");
        assert_eq!(plan.counts().total(), 4);
    }

    #[test]
    fn truncation_delivers_short() {
        let mut plan = FaultPlan::seeded(
            1,
            FaultRates {
                dma_truncation: 1.0,
                ..FaultRates::none()
            },
        );
        match plan.dma_fault(1000) {
            Some(DmaFault::Truncation { delivered }) => assert!(delivered < 1000),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert_eq!(plan.counts().dma_truncations, 1);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let mut plan = FaultPlan::seeded(9, FaultRates::uniform(0.1));
        let hangs = (0..10_000).filter(|_| plan.unit_hangs()).count();
        assert!((800..1200).contains(&hangs), "got {hangs} hangs");
    }

    #[test]
    fn verify_sampling_is_always_on_at_rate_one() {
        assert!(FaultPlan::none().sample_verify(1.0));
        assert!(
            !FaultPlan::none().sample_verify(0.5),
            "inert plan cannot sample"
        );
        let mut plan = FaultPlan::seeded(3, FaultRates::none());
        let sampled = (0..10_000).filter(|_| plan.sample_verify(0.25)).count();
        assert!((2000..3000).contains(&sampled));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_rate_panics() {
        let _ = FaultPlan::seeded(
            0,
            FaultRates {
                unit_hang: 1.5,
                ..FaultRates::none()
            },
        );
    }

    /// Breaks one rate field, and the site name `checked` must report.
    type DegenerateCase = (fn(&mut FaultRates), &'static str);

    #[test]
    fn checked_reports_the_first_degenerate_site() {
        assert!(FaultRates::none().checked().is_ok());
        assert!(FaultRates::uniform(1.0).checked().is_ok());
        let cases: [DegenerateCase; 6] = [
            (|r| r.dma_timeout = -0.1, "dma_timeout"),
            (|r| r.dma_truncation = f64::NAN, "dma_truncation"),
            (|r| r.response_drop = f64::INFINITY, "response_drop"),
            (|r| r.response_duplicate = 2.0, "response_duplicate"),
            (|r| r.unit_hang = 1.0001, "unit_hang"),
            (|r| r.output_bit_flip = -f64::EPSILON, "output_bit_flip"),
        ];
        for (mutate, site) in cases {
            let mut rates = FaultRates::none();
            mutate(&mut rates);
            let err = rates.checked().expect_err("must reject");
            assert_eq!(err.site, site);
            assert!(err.to_string().contains(site), "{err}");
        }
    }

    #[test]
    fn clamped_forces_rates_into_range() {
        let wild = FaultRates {
            dma_timeout: -3.0,
            dma_truncation: f64::NAN,
            response_drop: 17.0,
            response_duplicate: f64::NEG_INFINITY,
            unit_hang: 0.25,
            output_bit_flip: f64::INFINITY,
        };
        let tamed = wild.clamped();
        assert!(tamed.checked().is_ok());
        assert_eq!(tamed.dma_timeout, 0.0);
        assert_eq!(tamed.dma_truncation, 0.0, "NaN clamps to zero");
        assert_eq!(tamed.response_drop, 1.0);
        assert_eq!(tamed.response_duplicate, 0.0);
        assert_eq!(tamed.unit_hang, 0.25, "in-range rates pass through");
        assert_eq!(tamed.output_bit_flip, 1.0);
    }

    #[test]
    fn try_seeded_rejects_instead_of_panicking() {
        let err = FaultPlan::try_seeded(
            0,
            FaultRates {
                unit_hang: f64::NAN,
                ..FaultRates::none()
            },
        )
        .expect_err("NaN must be rejected");
        assert_eq!(err.site, "unit_hang");
    }

    #[test]
    fn try_seeded_vacuous_rates_yield_the_inert_plan() {
        let plan = FaultPlan::try_seeded(99, FaultRates::none()).unwrap();
        assert!(!plan.is_active(), "all-zero rates never draw from an RNG");
        let live = FaultPlan::try_seeded(99, FaultRates::uniform(0.5)).unwrap();
        assert!(live.is_active());
    }

    #[test]
    fn vacuous_detection() {
        assert!(FaultRates::none().is_vacuous());
        assert!(!FaultRates::uniform(1e-9).is_vacuous());
        assert!(!FaultRates {
            output_bit_flip: 0.1,
            ..FaultRates::none()
        }
        .is_vacuous());
    }
}
