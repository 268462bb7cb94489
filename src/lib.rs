//! Facade crate for the HPCA 2019 "FPGA Accelerated INDEL Realignment in
//! the Cloud" reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can use a single dependency:
//!
//! - [`genome`] — genomic primitives (bases, reads, targets).
//! - [`core`] — the INDEL realignment algorithm (golden model).
//! - [`fpga`] — the cycle-level IR accelerator and SoC simulator, with
//!   seeded fault injection ([`fpga::fault`]) and the host resilience
//!   layer ([`fpga::driver`],
//!   [`fpga::AcceleratedSystem::run_resilient`]).
//! - [`baselines`] — GATK3-, ADAM- and GPU-like software baselines.
//! - [`workloads`] — synthetic NA12878-like workload generation.
//! - [`cloud`] — AWS EC2 instance catalogue and cost analysis.
//! - [`sim`] — the deterministic discrete-event clock and queue the
//!   accelerator, serving and fleet loops run on ([`sim::EventQueue`],
//!   [`sim::SimTime`]).
//! - [`telemetry`] — perf-counter registry and Perfetto trace emitter.
//! - [`serve`] — the async batched realignment service: bounded
//!   admission queue, adaptive batcher and sharded accelerator pool
//!   ([`serve::RealignService`]).
//! - [`fuzz`] — the differential greybox fuzzer that cross-checks every
//!   backend pair on adversarial inputs and persists minimized
//!   reproducers ([`fuzz::fuzz`], [`fuzz::FuzzConfig`]).
//!
//! # Quickstart
//!
//! ```
//! use ir_system::genome::{Qual, Read, RealignmentTarget};
//! use ir_system::core::IndelRealigner;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let target = RealignmentTarget::builder(10_000)
//!     .reference("CCTTAGA".parse()?)
//!     .consensus("ACCTGAA".parse()?)
//!     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
//!     .build()?;
//!
//! let result = IndelRealigner::new().realign(&target);
//! println!("best consensus: {}", result.best_consensus());
//! # Ok(())
//! # }
//! ```

pub use ir_baselines as baselines;
pub use ir_cloud as cloud;
pub use ir_core as core;
pub use ir_fpga as fpga;
pub use ir_fuzz as fuzz;
pub use ir_genome as genome;
pub use ir_serve as serve;
pub use ir_sim as sim;
pub use ir_telemetry as telemetry;
pub use ir_workloads as workloads;
