//! The INDEL realignment (IR) algorithm — the paper's core contribution as
//! a software library and golden reference model.
//!
//! INDEL realignment corrects a systematic artifact of primary alignment:
//! a read containing an insertion/deletion usually maps to the right
//! genomic region but is locally misaligned relative to other reads with
//! the same variant. The realigner fixes this in three steps
//! (HPCA 2019, Algorithms 1 and 2):
//!
//! 1. **Minimum weighted Hamming distances** ([`whd`], [`grid`]): slide
//!    each read along each consensus and record, per (consensus, read)
//!    pair, the smallest quality-weighted mismatch sum and the offset where
//!    it occurred.
//! 2. **Consensus scoring and selection** ([`score`]): score each
//!    alternative consensus as the sum over reads of
//!    `|min_whd[i,j] − min_whd[REF,j]|` and pick the lowest.
//! 3. **Read realignment** ([`realign`]): for each read where the picked
//!    consensus beats the reference, emit the new start position.
//!
//! [`IndelRealigner`] ties the steps together; [`OpCounts`] instruments
//! every base comparison so cost models and the cycle-level FPGA simulator
//! can be validated against the same arithmetic.
//!
//! # Example
//!
//! ```
//! use ir_genome::{Qual, Read, RealignmentTarget};
//! use ir_core::IndelRealigner;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Figure 4 worked example.
//! let target = RealignmentTarget::builder(20)
//!     .reference("CCTTAGA".parse()?)
//!     .consensus("ACCTGAA".parse()?)
//!     .consensus("TCTGCCT".parse()?)
//!     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
//!     .read(Read::new("r1", "CCTC".parse()?, Qual::from_raw_scores(&[10, 60, 30, 20])?, 0)?)
//!     .build()?;
//!
//! let result = IndelRealigner::new().realign(&target);
//! assert_eq!(result.best_consensus(), 1);         // consensus 1 picked
//! assert!(result.read_outcome(0).realigned());    // read 0 moves…
//! assert_eq!(result.read_outcome(0).new_pos(), Some(23));
//! assert!(!result.read_outcome(1).realigned());   // …read 1 stays
//! # Ok(())
//! # }
//! ```

// Unsafe code is denied crate-wide; only the `kernel` module may opt in,
// for the `std::arch` SIMD intrinsics behind runtime feature detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod complexity;
pub mod consensus;
pub mod grid;
#[allow(unsafe_code)]
pub mod kernel;
pub mod realign;
pub mod score;
pub mod stats;
pub mod whd;

mod realigner;

pub use batch::{CandidateBlock, SweepRead};
pub use consensus::{consensuses_from_reads, CandidateConsensus, IndelHypothesis};
pub use grid::{MinWhd, MinWhdGrid};
pub use kernel::{fold_whd, fold_whd_counted, KernelError, KernelKind};
pub use realign::{realign_reads, ReadOutcome};
pub use realigner::{IndelRealigner, PruningMode, RealignmentResult};
pub use score::{score_consensuses, score_consensuses_with, select_best, SelectionRule};
pub use stats::OpCounts;
pub use whd::{calc_whd, calc_whd_bounded, BoundedWhd};
