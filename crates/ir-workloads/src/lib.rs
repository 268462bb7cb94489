//! Synthetic workload generation for the INDEL realignment reproduction.
//!
//! The paper evaluates on the NA12878 genome from the 1000 Genomes Project,
//! sequenced at 60–65× coverage (763,275,063 reads) and aligned to GRCh37
//! with BWA-MEM. That dataset is not redistributable here, so this crate
//! generates a **deterministic synthetic equivalent** that matches the
//! published *shape* statistics the accelerator's behaviour depends on:
//!
//! - per-chromosome IR target counts (paper: > 48,000 on Ch21, > 320,000
//!   on Ch2), scaled by a [`WorkloadConfig::scale`] knob so experiments run
//!   at laptop scale;
//! - target shapes: 2–32 consensuses, 10–256 reads per target, reads of
//!   ~250 bp, consensuses up to 2048 bp (paper appendix);
//! - a Zipf-like coverage imbalance across loci (paper §II-C), which is
//!   what defeats GPU-style SIMT execution and the synchronous scheduler;
//! - sequencing-error injection at 0.5–2% with Phred-consistent quality
//!   scores, plus genuine INDEL variants that the realigner must recover.
//!
//! The crate also provides the paper's worked examples: the Figure 4
//! target and the Figure 7 scheduling toy experiment.
//!
//! Beyond the paper's short-read germline regime, [`ShapeFamily`] /
//! [`WorkloadProfile`] name three more workload shapes (long-read,
//! deep-panel, metagenomic) with their own generator profiles and
//! [`ir_genome::TargetLimits`] envelopes, so the accelerator layers can
//! size per-shape configurations instead of assuming one geometry.
//!
//! # Example
//!
//! ```
//! use ir_workloads::{WorkloadConfig, WorkloadGenerator};
//! use ir_genome::Chromosome;
//!
//! let config = WorkloadConfig { scale: 1e-4, ..WorkloadConfig::default() };
//! let generator = WorkloadGenerator::new(config);
//! let workload = generator.chromosome(Chromosome::Autosome(21));
//! assert!(!workload.targets.is_empty());
//! // Deterministic: the same seed yields the same workload.
//! let again = generator.chromosome(Chromosome::Autosome(21));
//! assert_eq!(workload.targets.len(), again.targets.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod examples;
mod family;
mod generator;
mod profile;
mod zipf;

pub use arrivals::ArrivalProcess;
pub use examples::{figure4_target, scheduling_toy_targets};
pub use family::{ShapeFamily, WorkloadProfile};
pub use generator::{
    check_scale, ChromosomeWorkload, ReadTruth, TargetTruth, WorkloadConfig, WorkloadGenerator,
    WorkloadStats,
};
pub use profile::{
    expected_target_count, target_density_per_bp, PAPER_CH21_TARGETS, PAPER_CH2_TARGETS,
};
pub use zipf::Zipf;
