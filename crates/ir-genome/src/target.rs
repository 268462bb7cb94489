//! INDEL realignment targets.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Chromosome, GenomeError, Read, Sequence};

/// Structural limits of one IR accelerator unit (paper §III-A and appendix):
/// up to 32 consensuses of ≤ 2048 bases and up to 256 reads of ≤ 256 bases,
/// sized to the unit's block-RAM input buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TargetLimits {
    /// Maximum number of consensuses, including the reference (buffer #1
    /// holds 32 × 2048 bytes).
    pub max_consensuses: usize,
    /// Maximum number of reads (buffers #2/#3 hold 256 × 256 bytes).
    pub max_reads: usize,
    /// Maximum consensus length in bases.
    pub max_consensus_len: usize,
    /// Maximum read length in bases.
    pub max_read_len: usize,
}

impl TargetLimits {
    /// The limits of the deployed hardware: 32 consensuses × 2048 bp,
    /// 256 reads × 256 bp.
    pub const HARDWARE: TargetLimits = TargetLimits {
        max_consensuses: 32,
        max_reads: 256,
        max_consensus_len: 2048,
        max_read_len: 256,
    };

    /// Unbounded limits, for software-only experimentation.
    pub const UNBOUNDED: TargetLimits = TargetLimits {
        max_consensuses: usize::MAX,
        max_reads: usize::MAX,
        max_consensus_len: usize::MAX,
        max_read_len: usize::MAX,
    };
}

impl Default for TargetLimits {
    fn default() -> Self {
        TargetLimits::HARDWARE
    }
}

/// Shape summary of a target: everything the cost models and schedulers need
/// without touching the sequence data itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TargetShape {
    /// Number of consensuses, including the reference.
    pub num_consensuses: usize,
    /// Number of reads.
    pub num_reads: usize,
    /// Length of each consensus in bases.
    pub consensus_lens: Vec<usize>,
    /// Length of each read in bases.
    pub read_lens: Vec<usize>,
}

impl TargetShape {
    /// Worst-case base comparisons for Algorithm 1 without pruning:
    /// `Σ_i Σ_j (m_i − n_j + 1) · n_j` (paper §II-C).
    pub fn worst_case_comparisons(&self) -> u64 {
        let mut total = 0u64;
        for &m in &self.consensus_lens {
            for &n in &self.read_lens {
                if m >= n {
                    total += ((m - n + 1) as u64) * n as u64;
                }
            }
        }
        total
    }

    /// Bytes of input the host must DMA to the FPGA for this target:
    /// consensus bases plus read bases plus read quality scores, one byte
    /// each (paper Figure 6 buffer layout).
    pub fn input_bytes(&self) -> u64 {
        let cons: u64 = self.consensus_lens.iter().map(|&l| l as u64).sum();
        let reads: u64 = self.read_lens.iter().map(|&l| l as u64).sum();
        cons + 2 * reads
    }

    /// Bytes of output the accelerator writes back: one realign flag byte
    /// and one 4-byte new position per read (paper Figure 6 output buffers).
    pub fn output_bytes(&self) -> u64 {
        5 * self.num_reads as u64
    }
}

/// One INDEL realignment target: a locus interval, its candidate consensus
/// sequences (index 0 is always the reference) and the reads overlapping the
/// interval.
///
/// Targets are processed completely independently of each other — the
/// property the paper's sea-of-accelerators design exploits for task
/// parallelism.
///
/// # Example
///
/// ```
/// use ir_genome::{Qual, Read, RealignmentTarget};
///
/// let target = RealignmentTarget::builder(10_000)
///     .reference("CCTTAGA".parse()?)
///     .consensus("ACCTGAA".parse()?)
///     .consensus("TCTGCCT".parse()?)
///     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
///     .read(Read::new("r1", "CCTC".parse()?, Qual::from_raw_scores(&[10, 60, 30, 20])?, 0)?)
///     .build()?;
///
/// assert_eq!(target.num_consensuses(), 3);
/// assert_eq!(target.num_reads(), 2);
/// # Ok::<(), ir_genome::GenomeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RealignmentTarget {
    start_pos: u64,
    chromosome: Option<Chromosome>,
    consensuses: Vec<Sequence>,
    reads: Vec<Read>,
}

impl RealignmentTarget {
    /// Starts building a target whose interval begins at absolute position
    /// `start_pos` (the value later programmed with `ir_set_target`).
    pub fn builder(start_pos: u64) -> TargetBuilder {
        TargetBuilder {
            start_pos,
            chromosome: None,
            reference: None,
            consensuses: Vec::new(),
            reads: Vec::new(),
            limits: TargetLimits::default(),
        }
    }

    /// Absolute start position of the target interval.
    pub fn start_pos(&self) -> u64 {
        self.start_pos
    }

    /// Chromosome the target lies on, if recorded.
    pub fn chromosome(&self) -> Option<Chromosome> {
        self.chromosome
    }

    /// Number of consensuses including the reference.
    pub fn num_consensuses(&self) -> usize {
        self.consensuses.len()
    }

    /// Number of reads.
    pub fn num_reads(&self) -> usize {
        self.reads.len()
    }

    /// The reference consensus (index 0).
    pub fn reference(&self) -> &Sequence {
        &self.consensuses[0]
    }

    /// All consensuses; index 0 is the reference.
    pub fn consensuses(&self) -> &[Sequence] {
        &self.consensuses
    }

    /// The consensus at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_consensuses()`.
    pub fn consensus(&self, index: usize) -> &Sequence {
        &self.consensuses[index]
    }

    /// All reads in the target.
    pub fn reads(&self) -> &[Read] {
        &self.reads
    }

    /// The read at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_reads()`.
    pub fn read(&self, index: usize) -> &Read {
        &self.reads[index]
    }

    /// [`TargetShape::input_bytes`] without building the shape, for
    /// callers that size a DMA transfer on every dispatch.
    pub fn input_bytes(&self) -> u64 {
        let cons: u64 = self.consensuses.iter().map(|c| c.len() as u64).sum();
        let reads: u64 = self.reads.iter().map(|r| r.len() as u64).sum();
        cons + 2 * reads
    }

    /// Returns the shape summary used by schedulers and cost models.
    pub fn shape(&self) -> TargetShape {
        TargetShape {
            num_consensuses: self.consensuses.len(),
            num_reads: self.reads.len(),
            consensus_lens: self.consensuses.iter().map(Sequence::len).collect(),
            read_lens: self.reads.iter().map(Read::len).collect(),
        }
    }
}

impl fmt::Display for RealignmentTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "target@{} ({} consensuses, {} reads)",
            self.start_pos,
            self.consensuses.len(),
            self.reads.len()
        )
    }
}

/// Builder for [`RealignmentTarget`]; validates the accelerator's structural
/// limits at [`TargetBuilder::build`].
#[derive(Debug, Clone)]
pub struct TargetBuilder {
    start_pos: u64,
    chromosome: Option<Chromosome>,
    reference: Option<Sequence>,
    consensuses: Vec<Sequence>,
    reads: Vec<Read>,
    limits: TargetLimits,
}

impl TargetBuilder {
    /// Sets the reference sequence (consensus 0). Required.
    pub fn reference(mut self, reference: Sequence) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Records the chromosome the target lies on.
    pub fn chromosome(mut self, chromosome: Chromosome) -> Self {
        self.chromosome = Some(chromosome);
        self
    }

    /// Adds one alternative consensus.
    pub fn consensus(mut self, consensus: Sequence) -> Self {
        self.consensuses.push(consensus);
        self
    }

    /// Adds several alternative consensuses.
    pub fn consensuses<I: IntoIterator<Item = Sequence>>(mut self, consensuses: I) -> Self {
        self.consensuses.extend(consensuses);
        self
    }

    /// Adds one read.
    pub fn read(mut self, read: Read) -> Self {
        self.reads.push(read);
        self
    }

    /// Adds several reads.
    pub fn reads<I: IntoIterator<Item = Read>>(mut self, reads: I) -> Self {
        self.reads.extend(reads);
        self
    }

    /// Overrides the structural limits (defaults to
    /// [`TargetLimits::HARDWARE`]).
    pub fn limits(mut self, limits: TargetLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Validates and builds the target.
    ///
    /// # Errors
    ///
    /// - [`GenomeError::EmptySequence`] if no reference was set, the
    ///   reference is empty, any consensus is empty, or there are no reads.
    /// - [`GenomeError::TargetLimitExceeded`] if any count or length exceeds
    ///   the configured [`TargetLimits`].
    /// - [`GenomeError::ReadLongerThanConsensus`] if some read is longer
    ///   than the shortest consensus (no alignment offset would exist).
    pub fn build(self) -> Result<RealignmentTarget, GenomeError> {
        let reference = self.reference.ok_or(GenomeError::EmptySequence)?;
        if reference.is_empty() {
            return Err(GenomeError::EmptySequence);
        }
        let mut consensuses = Vec::with_capacity(1 + self.consensuses.len());
        consensuses.push(reference);
        consensuses.extend(self.consensuses);

        if self.reads.is_empty() {
            return Err(GenomeError::EmptySequence);
        }
        let limits = self.limits;
        if consensuses.len() > limits.max_consensuses {
            return Err(GenomeError::TargetLimitExceeded {
                what: "consensuses",
                value: consensuses.len(),
                max: limits.max_consensuses,
            });
        }
        if self.reads.len() > limits.max_reads {
            return Err(GenomeError::TargetLimitExceeded {
                what: "reads",
                value: self.reads.len(),
                max: limits.max_reads,
            });
        }
        let mut min_consensus_len = usize::MAX;
        for cons in &consensuses {
            if cons.is_empty() {
                return Err(GenomeError::EmptySequence);
            }
            if cons.len() > limits.max_consensus_len {
                return Err(GenomeError::TargetLimitExceeded {
                    what: "consensus bases",
                    value: cons.len(),
                    max: limits.max_consensus_len,
                });
            }
            min_consensus_len = min_consensus_len.min(cons.len());
        }
        for read in &self.reads {
            if read.len() > limits.max_read_len {
                return Err(GenomeError::TargetLimitExceeded {
                    what: "read bases",
                    value: read.len(),
                    max: limits.max_read_len,
                });
            }
            if read.len() > min_consensus_len {
                return Err(GenomeError::ReadLongerThanConsensus {
                    read_len: read.len(),
                    consensus_len: min_consensus_len,
                });
            }
        }
        Ok(RealignmentTarget {
            start_pos: self.start_pos,
            chromosome: self.chromosome,
            consensuses,
            reads: self.reads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qual;

    fn simple_read(bases: &str, start: u64) -> Read {
        let quals = Qual::uniform(30, bases.len()).unwrap();
        Read::new("r", bases.parse().unwrap(), quals, start).unwrap()
    }

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
    fn builds_figure4_example() {
        let t = figure4_target();
        assert_eq!(t.num_consensuses(), 3);
        assert_eq!(t.num_reads(), 2);
        assert_eq!(t.reference().to_string(), "CCTTAGA");
        assert_eq!(t.consensus(1).to_string(), "ACCTGAA");
        assert_eq!(t.start_pos(), 20);
    }

    #[test]
    fn requires_reference_and_reads() {
        let no_ref = RealignmentTarget::builder(0)
            .read(simple_read("ACG", 0))
            .build();
        assert!(no_ref.is_err());

        let no_reads = RealignmentTarget::builder(0)
            .reference("ACGTACGT".parse().unwrap())
            .build();
        assert!(no_reads.is_err());
    }

    #[test]
    fn enforces_consensus_count_limit() {
        let mut builder = RealignmentTarget::builder(0)
            .reference("ACGTACGT".parse().unwrap())
            .read(simple_read("ACG", 0));
        for _ in 0..32 {
            builder = builder.consensus("ACGTACGT".parse().unwrap());
        }
        let err = builder.build().unwrap_err();
        assert!(matches!(
            err,
            GenomeError::TargetLimitExceeded {
                what: "consensuses",
                ..
            }
        ));
    }

    #[test]
    fn enforces_read_count_limit() {
        let mut builder = RealignmentTarget::builder(0).reference("ACGTACGT".parse().unwrap());
        for _ in 0..257 {
            builder = builder.read(simple_read("ACG", 0));
        }
        let err = builder.build().unwrap_err();
        assert!(matches!(
            err,
            GenomeError::TargetLimitExceeded { what: "reads", .. }
        ));
    }

    #[test]
    fn enforces_length_limits() {
        let long_cons: Sequence = "A".repeat(2049).parse().unwrap();
        let err = RealignmentTarget::builder(0)
            .reference(long_cons)
            .read(simple_read("ACG", 0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GenomeError::TargetLimitExceeded {
                what: "consensus bases",
                ..
            }
        ));

        let long_read: String = "A".repeat(257);
        let err = RealignmentTarget::builder(0)
            .reference("A".repeat(2048).parse().unwrap())
            .read(simple_read(&long_read, 0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GenomeError::TargetLimitExceeded {
                what: "read bases",
                ..
            }
        ));
    }

    #[test]
    fn rejects_read_longer_than_any_consensus() {
        let err = RealignmentTarget::builder(0)
            .reference("ACGTACGTAC".parse().unwrap())
            .consensus("ACG".parse().unwrap())
            .read(simple_read("ACGTA", 0))
            .build()
            .unwrap_err();
        assert!(matches!(err, GenomeError::ReadLongerThanConsensus { .. }));
    }

    #[test]
    fn unbounded_limits_lift_checks() {
        let mut builder = RealignmentTarget::builder(0)
            .reference("ACGTACGT".parse().unwrap())
            .limits(TargetLimits::UNBOUNDED);
        for _ in 0..300 {
            builder = builder.read(simple_read("ACG", 0));
        }
        assert!(builder.build().is_ok());
    }

    #[test]
    fn shape_reports_worst_case_comparisons() {
        let t = figure4_target();
        let shape = t.shape();
        assert_eq!(shape.num_consensuses, 3);
        assert_eq!(shape.num_reads, 2);
        // Each pair: (7 - 4 + 1) * 4 = 16 comparisons, 6 pairs total.
        assert_eq!(shape.worst_case_comparisons(), 96);
    }

    #[test]
    fn paper_worst_case_target_comparisons() {
        // Paper §II-C quotes a worst case of 3,684,352,000 comparisons for
        // one target. That figure corresponds to C = 32, R = 256, m = 2048
        // and n = 250 (the ~250 bp Illumina read length from the appendix):
        // 32 · 256 · (2048 − 250 + 1) · 250 = 3,684,352,000.
        let shape = TargetShape {
            num_consensuses: 32,
            num_reads: 256,
            consensus_lens: vec![2048; 32],
            read_lens: vec![250; 256],
        };
        assert_eq!(shape.worst_case_comparisons(), 3_684_352_000);
    }

    #[test]
    fn shape_io_byte_counts() {
        let t = figure4_target();
        let shape = t.shape();
        // consensuses 7*3 = 21 bytes, reads 4*2 bases + 4*2 quals = 16.
        assert_eq!(shape.input_bytes(), 37);
        assert_eq!(shape.output_bytes(), 10);
    }

    #[test]
    fn hardware_limits_are_papers() {
        let l = TargetLimits::default();
        assert_eq!(l.max_consensuses, 32);
        assert_eq!(l.max_reads, 256);
        assert_eq!(l.max_consensus_len, 2048);
        assert_eq!(l.max_read_len, 256);
    }
}
