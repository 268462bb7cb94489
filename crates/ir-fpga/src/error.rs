//! Error type for the FPGA simulator.

use std::error::Error;
use std::fmt;

/// Errors produced while configuring or driving the simulated accelerator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FpgaError {
    /// The requested configuration does not fit on the FPGA.
    DoesNotFit {
        /// Requested number of IR units.
        units: usize,
        /// Maximum units the floorplan model admits.
        max_units: usize,
    },
    /// The requested clock recipe fails timing closure (the paper's
    /// 250 MHz experiment: > 95% of the critical path is routing delay).
    TimingFailure {
        /// Requested clock in MHz.
        clock_mhz: u32,
        /// Worst negative slack in nanoseconds (negative = failing).
        slack_ns: f64,
    },
    /// A RoCC word that does not decode to an IR command.
    InvalidCommand(u32),
    /// A command referenced a unit id outside the instantiated range.
    NoSuchUnit {
        /// The requested unit.
        unit: usize,
        /// Number of instantiated units.
        available: usize,
    },
    /// A target was submitted whose data exceeds the unit's buffers.
    BufferOverflow {
        /// Which buffer overflowed.
        buffer: &'static str,
        /// Bytes required.
        required: usize,
        /// Buffer capacity in bytes.
        capacity: usize,
    },
    /// The accelerator was started before all required configuration
    /// commands were issued.
    NotConfigured(&'static str),
    /// A hardware interaction exceeded its cycle/time budget (DMA chain
    /// that never completed, response that never arrived).
    Timeout {
        /// The boundary that timed out (e.g. `"pcie dma"`,
        /// `"mmio response queue"`).
        site: &'static str,
        /// Seconds the host waited before declaring the timeout.
        waited_s: f64,
    },
    /// Read-back data failed an integrity check (short DMA payload,
    /// malformed flag byte, golden-model verification mismatch).
    CorruptOutput {
        /// What failed the check.
        detail: &'static str,
        /// The observed value (delivered bytes, bad flag, mismatching
        /// read index — whatever the detail names).
        observed: u64,
    },
    /// A unit's FSM hung mid-execution and sits stuck-busy until reset.
    UnitHung {
        /// The wedged unit.
        unit: usize,
        /// Targets the unit had completed before hanging.
        targets_completed: u64,
    },
    /// A workload shape envelope no unit configuration can hold: one of
    /// its dimensions overflows an ISA field width, or the buffer
    /// geometry it implies leaves room for zero IR units on the fabric.
    ShapeUnsupported {
        /// The offending dimension (e.g. `"consensus length"`,
        /// `"per-unit BRAM36 blocks"`).
        what: &'static str,
        /// The requested value.
        value: usize,
        /// The largest value a configuration can support.
        max: usize,
    },
}

impl fmt::Display for FpgaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpgaError::DoesNotFit { units, max_units } => write!(
                f,
                "{units} IR units do not fit on the FPGA (floorplan admits {max_units})"
            ),
            FpgaError::TimingFailure {
                clock_mhz,
                slack_ns,
            } => write!(
                f,
                "{clock_mhz} MHz clock fails timing with {slack_ns:.2} ns of negative slack"
            ),
            FpgaError::InvalidCommand(word) => {
                write!(f, "word 0x{word:08x} does not decode to a RoCC IR command")
            }
            FpgaError::NoSuchUnit { unit, available } => {
                write!(
                    f,
                    "unit {unit} does not exist ({available} units instantiated)"
                )
            }
            FpgaError::BufferOverflow {
                buffer,
                required,
                capacity,
            } => write!(
                f,
                "{buffer} buffer overflow: {required} bytes required, capacity {capacity}"
            ),
            FpgaError::NotConfigured(what) => {
                write!(f, "accelerator started before configuring {what}")
            }
            FpgaError::Timeout { site, waited_s } => {
                write!(
                    f,
                    "timeout at {site} after {waited_s:.6} s with no completion"
                )
            }
            FpgaError::CorruptOutput { detail, observed } => {
                write!(f, "corrupt read-back data: {detail} (observed {observed})")
            }
            FpgaError::UnitHung {
                unit,
                targets_completed,
            } => write!(
                f,
                "unit {unit} hung mid-execution after {targets_completed} completed targets"
            ),
            FpgaError::ShapeUnsupported { what, value, max } => write!(
                f,
                "no unit configuration holds this shape: {what} {value} exceeds {max}"
            ),
        }
    }
}

impl Error for FpgaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let errors: Vec<FpgaError> = vec![
            FpgaError::DoesNotFit {
                units: 64,
                max_units: 32,
            },
            FpgaError::TimingFailure {
                clock_mhz: 250,
                slack_ns: -1.5,
            },
            FpgaError::InvalidCommand(0xdead_beef),
            FpgaError::NoSuchUnit {
                unit: 33,
                available: 32,
            },
            FpgaError::BufferOverflow {
                buffer: "consensus",
                required: 70_000,
                capacity: 65_536,
            },
            FpgaError::NotConfigured("buffer addresses"),
            FpgaError::Timeout {
                site: "pcie dma",
                waited_s: 0.004,
            },
            FpgaError::CorruptOutput {
                detail: "realign flag byte out of range",
                observed: 7,
            },
            FpgaError::UnitHung {
                unit: 12,
                targets_completed: 900,
            },
            FpgaError::ShapeUnsupported {
                what: "consensus length",
                value: 100_000,
                max: 65_535,
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_ascii_lowercase()
                    || msg.starts_with(|c: char| c.is_ascii_digit()),
                "{msg}"
            );
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<FpgaError>();
    }
}
