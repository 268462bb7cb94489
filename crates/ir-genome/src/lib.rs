//! Genomic primitives for the INDEL realignment (IR) accelerator reproduction.
//!
//! This crate provides the data model shared by every other crate in the
//! workspace: nucleotide [`Base`]s, Phred [`Qual`]ity scores, [`Sequence`]s,
//! aligned [`Read`]s, candidate consensus haplotypes, genomic
//! coordinates ([`Chromosome`], [`GenomicPos`]) and the central
//! [`RealignmentTarget`] — one locus interval plus the reads and consensuses
//! the INDEL realigner processes independently of all other loci.
//!
//! The representation mirrors the paper's hardware choices: **one byte per
//! base** and **one byte per quality score** (HPCA 2019, §III-A "Data
//! Reuse"), so a sequence is exactly the byte stream the accelerator DMA
//! engine moves into FPGA block RAM.
//!
//! # Example
//!
//! ```
//! use ir_genome::{RealignmentTarget, Sequence, Read, Qual};
//!
//! # fn main() -> Result<(), ir_genome::GenomeError> {
//! // The worked example of the paper's Figure 4: 3 consensuses, 2 reads.
//! let reference: Sequence = "CCTTAGA".parse()?;
//! let cons1: Sequence = "ACCTGAA".parse()?;
//! let read = Read::new("read0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 20)?;
//!
//! let target = RealignmentTarget::builder(20)
//!     .reference(reference)
//!     .consensus(cons1)
//!     .read(read)
//!     .build()?;
//! assert_eq!(target.num_consensuses(), 2); // reference counts as consensus 0
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
mod cigar;
mod error;
mod position;
mod qual;
mod read;
mod sequence;
mod target;
pub mod tio;

pub use base::{base_code, Base};
pub use cigar::{Cigar, CigarOp};
pub use error::GenomeError;
pub use position::{Chromosome, GenomicPos, GRCH37_CHROMOSOME_LENGTHS};
pub use qual::{Qual, MAX_PHRED_SCORE, PHRED_ASCII_OFFSET};
pub use read::Read;
pub use sequence::Sequence;
pub use target::{RealignmentTarget, TargetBuilder, TargetLimits, TargetShape};
