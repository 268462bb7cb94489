//! VU9P floorplan and timing model.
//!
//! Reproduces the paper's resource results: 32 IR units fit on the Xilinx
//! Virtex UltraScale+ VU9P with block-RAM utilization of 87.62% and CLB
//! logic utilization of 32.53% (§III-A, footnote 3), and the 250 MHz clock
//! recipe fails timing because > 95% of the critical path is routing delay
//! through the 32-unit AXI4 memory system (§IV "Frequency").

use serde::{Deserialize, Serialize};

use crate::bram;
use crate::params::{ClockRecipe, FpgaParams};
use crate::FpgaError;

/// Total BRAM36 primitives on the VU9P.
pub const VU9P_BRAM36: usize = 2160;
/// Total 6-input LUTs on the VU9P.
pub const VU9P_LUTS: usize = 1_182_240;
/// Total DSP slices on the VU9P (Table II quotes "6,800 DSPs").
pub const VU9P_DSPS: usize = 6840;

/// Fraction of BRAM the placer can realistically fill before routing
/// congestion makes the design un-closable — the reason the paper stops at
/// 32 units (~88–90% BRAM) rather than packing to 100%.
pub const ROUTABILITY_CEILING: f64 = 0.90;

/// BRAM36 blocks of the per-unit memory-channel arbiter queue ("ARB Q" in
/// Figure 6): a 256-bit wide FIFO.
pub const ARB_QUEUE_BLOCKS_PER_UNIT: usize = 4;

/// BRAM36 blocks of the shared infrastructure: AXI hub, AXI crossbar
/// buffering, PCIe DMA engine and the RoCC command router.
pub const SYSTEM_BRAM_BLOCKS: usize = 68;

/// LUTs per IR unit (the data-parallel comparator tree dominates).
pub const UNIT_LUTS_SERIAL: usize = 6_000;
/// LUTs per unit with the 32-lane Figure 8 calculator.
pub const UNIT_LUTS_DATA_PARALLEL: usize = 10_000;
/// LUTs of the shared infrastructure.
pub const SYSTEM_LUTS: usize = 64_600;

/// A resource-utilization report for a candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceReport {
    /// Units in the configuration.
    pub units: usize,
    /// BRAM36 blocks used (units + arbiters + system).
    pub bram_blocks: usize,
    /// BRAM utilization fraction.
    pub bram_utilization: f64,
    /// LUTs used.
    pub luts: usize,
    /// CLB/LUT utilization fraction.
    pub lut_utilization: f64,
    /// Whether the design fits under the routability ceiling.
    pub fits: bool,
}

/// Computes the resource report for `units` IR units with `lanes` HDC
/// lanes, using the deployed hardware's 53-block unit buffers.
pub fn report(units: usize, lanes: usize) -> ResourceReport {
    report_with_unit_blocks(units, lanes, bram::unit_bram36_blocks())
}

/// [`report`] for a unit whose buffers consume `unit_blocks` BRAM36
/// primitives — the floorplan check behind the per-shape unit
/// configurations of [`crate::shape`]. The per-unit arbiter queue and the
/// shared system blocks are charged on top, exactly as for the hardware
/// geometry.
pub fn report_with_unit_blocks(units: usize, lanes: usize, unit_blocks: usize) -> ResourceReport {
    let per_unit = unit_blocks + ARB_QUEUE_BLOCKS_PER_UNIT;
    let bram_blocks = units * per_unit + SYSTEM_BRAM_BLOCKS;
    let unit_luts = if lanes > 1 {
        UNIT_LUTS_DATA_PARALLEL
    } else {
        UNIT_LUTS_SERIAL
    };
    let luts = units * unit_luts + SYSTEM_LUTS;
    let bram_utilization = bram_blocks as f64 / VU9P_BRAM36 as f64;
    let lut_utilization = luts as f64 / VU9P_LUTS as f64;
    ResourceReport {
        units,
        bram_blocks,
        bram_utilization,
        luts,
        lut_utilization,
        fits: bram_utilization <= ROUTABILITY_CEILING && lut_utilization <= ROUTABILITY_CEILING,
    }
}

/// Maximum units that fit under the routability ceiling.
pub fn max_units(lanes: usize) -> usize {
    max_units_with_unit_blocks(bram::unit_bram36_blocks(), lanes)
}

/// [`max_units`] for a unit whose buffers consume `unit_blocks` BRAM36
/// primitives. Returns 0 when even a single unit of that geometry blows
/// the routability ceiling — the signal [`crate::shape`] turns into a
/// [`FpgaError::ShapeUnsupported`] rejection.
pub fn max_units_with_unit_blocks(unit_blocks: usize, lanes: usize) -> usize {
    (1..=256)
        .take_while(|&u| report_with_unit_blocks(u, lanes, unit_blocks).fits)
        .last()
        .unwrap_or(0)
}

/// Critical-path estimate in nanoseconds for a design with `units` IR
/// units: a small fixed logic delay plus routing delay that grows with the
/// number of agents the AXI4 memory system must service.
///
/// At 32 units this puts > 90% of the path in routing, matching the
/// paper's timing report.
pub fn critical_path_ns(units: usize) -> f64 {
    let logic_ns = 0.4;
    let routing_ns = 0.22 * units as f64;
    logic_ns + routing_ns
}

/// Timing slack in nanoseconds for `clock` with `units` units
/// (negative = timing failure).
pub fn timing_slack_ns(clock: ClockRecipe, units: usize) -> f64 {
    clock.period_ns() - critical_path_ns(units)
}

/// Fraction of the critical path that is routing delay.
pub fn routing_fraction(units: usize) -> f64 {
    let total = critical_path_ns(units);
    (total - 0.4) / total
}

/// Validates that `params` both fits on the VU9P and closes timing.
///
/// # Errors
///
/// - [`FpgaError::NotConfigured`] if there are no units or no HDC lanes.
/// - [`FpgaError::DoesNotFit`] if the unit count exceeds the floorplan.
/// - [`FpgaError::TimingFailure`] if the clock recipe has negative slack,
///   reproducing the paper's rejected 250 MHz experiment.
pub fn validate(params: &FpgaParams) -> Result<ResourceReport, FpgaError> {
    if params.num_units == 0 {
        // A unitless system validates against no floorplan constraint but
        // can never schedule anything; reject it up front rather than
        // letting the dispatch loops panic.
        return Err(FpgaError::NotConfigured("any IR units (num_units is zero)"));
    }
    if params.lanes == 0 {
        // Likewise a laneless HDC compares nothing per cycle; the sweep
        // would panic on its first pair.
        return Err(FpgaError::NotConfigured("any HDC lanes (lanes is zero)"));
    }
    let rpt = report(params.num_units, params.lanes);
    if !rpt.fits {
        return Err(FpgaError::DoesNotFit {
            units: params.num_units,
            max_units: max_units(params.lanes),
        });
    }
    let slack = timing_slack_ns(params.clock, params.num_units);
    if slack < 0.0 {
        return Err(FpgaError::TimingFailure {
            clock_mhz: params.clock.mhz(),
            slack_ns: slack,
        });
    }
    Ok(rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_two_units_fit_at_paper_utilization() {
        let rpt = report(32, 32);
        assert!(rpt.fits);
        // Paper footnote 3: 87.62% BRAM at 32 units.
        assert!(
            (rpt.bram_utilization - 0.8762).abs() < 0.01,
            "BRAM utilization {:.4} should be ≈ 0.876",
            rpt.bram_utilization
        );
        // Paper footnote 3: 32.53% CLB logic.
        assert!(
            (rpt.lut_utilization - 0.3253).abs() < 0.01,
            "LUT utilization {:.4} should be ≈ 0.325",
            rpt.lut_utilization
        );
    }

    #[test]
    fn zero_units_is_rejected() {
        let params = crate::FpgaParams {
            num_units: 0,
            ..crate::FpgaParams::iracc()
        };
        assert!(matches!(
            validate(&params),
            Err(FpgaError::NotConfigured(_))
        ));
    }

    #[test]
    fn thirty_two_is_the_maximum() {
        assert_eq!(max_units(32), 32);
        assert!(!report(33, 32).fits);
    }

    #[test]
    fn deployed_clock_meets_timing() {
        assert!(timing_slack_ns(ClockRecipe::Mhz125, 32) > 0.0);
    }

    #[test]
    fn double_clock_fails_timing_at_32_units() {
        assert!(timing_slack_ns(ClockRecipe::Mhz250, 32) < 0.0);
    }

    #[test]
    fn routing_dominates_critical_path() {
        // Paper: "even at 125 MHz, the majority (over 90%) of the critical
        // path consists of routing delay".
        assert!(routing_fraction(32) > 0.90);
    }

    #[test]
    fn validate_accepts_deployed_config() {
        let rpt = validate(&FpgaParams::iracc()).unwrap();
        assert_eq!(rpt.units, 32);
    }

    #[test]
    fn validate_rejects_overfull_and_overclocked() {
        let too_many = FpgaParams {
            num_units: 64,
            ..FpgaParams::iracc()
        };
        assert!(matches!(
            validate(&too_many),
            Err(FpgaError::DoesNotFit { .. })
        ));

        let too_fast = FpgaParams {
            clock: ClockRecipe::Mhz250,
            ..FpgaParams::iracc()
        };
        assert!(matches!(
            validate(&too_fast),
            Err(FpgaError::TimingFailure { .. })
        ));
    }

    #[test]
    fn lut_budget_scales_with_lanes() {
        assert!(report(32, 32).luts > report(32, 1).luts);
    }
}
