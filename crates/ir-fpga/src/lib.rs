//! Cycle-level simulator of the HPCA 2019 INDEL realignment accelerator
//! system.
//!
//! The paper deploys a "sea" of 32 IR accelerator units on a Xilinx Virtex
//! UltraScale+ VU9P inside an AWS EC2 F1 instance. This crate reproduces
//! that system as a discrete-event, cycle-driven simulator whose functional
//! outputs are bit-identical to the [`ir_core`] golden model and whose
//! timing is derived from the paper's microarchitecture:
//!
//! - [`rocc`] / [`isa`] — the RoCC custom-instruction format and the
//!   five-command IR ISA of Table I.
//! - [`bram`] / [`resources`] — block-RAM buffer geometry and the VU9P
//!   floorplan model that enforces the 32-unit fit at ~88% BRAM.
//! - [`shape`] — per-shape unit configuration derivation: resize the unit
//!   buffers for a workload family's envelope and re-solve the floorplan
//!   for the unit count that geometry leaves room for.
//! - [`hdc`] — the Hamming Distance Calculator stage, serial
//!   (1 compare/cycle) or 32-lane data-parallel (Figure 8), with
//!   computation pruning.
//! - [`selector`] — the Consensus Selector stage (Figure 5).
//! - [mod@unit] — one IR unit: load → compute → drain, with per-phase cycle
//!   counts.
//! - [`mem`] / [`dma`] / [`mmio`] — DDR channel bandwidth sharing, PCIe
//!   DMA, and the AXI-Lite command/response queues.
//! - [`system`] — the full F1 deployment: synchronous-flush or
//!   asynchronous scheduling across all units (Figure 7), end-to-end
//!   runtime including transfers.
//! - [`hls`] — the degraded SDAccel/HLS configuration the paper compares
//!   against (16 units, no pruning).
//! - [`fault`] / [`driver`] — seeded fault injection at the hardware
//!   boundaries (DMA, MMIO, unit FSM, output buffers) and the host-side
//!   resilience layer (watchdog, bounded retry, verified read-back,
//!   quarantine, software fallback) that recovers from it.
//!
//! Every modeled block is additionally instrumented with the
//! [`ir_telemetry`] perf-counter registry and Chrome-trace tracer; enable
//! collection with [`AcceleratedSystem::with_telemetry`] and read the
//! [`TelemetrySnapshot`] off [`SystemRun::telemetry`]. Instrumentation is
//! purely observational: an enabled run reports exactly the same cycle
//! counts as a disabled one.
//!
//! # Example
//!
//! ```
//! use ir_fpga::{FpgaParams, Scheduling, AcceleratedSystem};
//! use ir_genome::{Qual, Read, RealignmentTarget};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let target = RealignmentTarget::builder(20)
//!     .reference("CCTTAGA".parse()?)
//!     .consensus("ACCTGAA".parse()?)
//!     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
//!     .build()?;
//!
//! let system = AcceleratedSystem::new(FpgaParams::iracc(), Scheduling::Asynchronous)?;
//! let run = system.run(std::slice::from_ref(&target));
//! assert_eq!(run.results[0].best_consensus(), 1);
//! assert!(run.wall_time_s > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod bram;
pub mod dma;
pub mod driver;
pub mod fault;
pub mod hdc;
pub mod hls;
pub mod isa;
pub mod layout;
pub mod mem;
pub mod mmio;
pub mod oracle;
pub mod resources;
pub mod rocc;
pub mod selector;
pub mod shape;
pub mod system;
pub mod unit;

mod engine;
mod error;
mod params;

pub use driver::{DriverRun, HostDriver, ResiliencePolicy, ResilienceReport};
pub use error::FpgaError;
pub use fault::{FaultCounts, FaultPlan, FaultRateError, FaultRates};
pub use ir_core::{KernelError, KernelKind};
pub use ir_telemetry::{BottleneckReport, PerfCounters, Telemetry, TelemetrySnapshot};
pub use isa::{BufferIndex, IrCommand};
pub use oracle::FunctionalOracle;
pub use params::{ClockRecipe, FpgaParams};
pub use rocc::RoccInstruction;
pub use shape::{derive_shape_config, BufferGeometry, ShapeConfig};
pub use system::{AcceleratedSystem, Scheduling, SystemRun, TimelineEvent, TimelinePhase};
pub use unit::{IrUnit, UnitCycles};
