//! The synthetic target generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ir_genome::{Base, Chromosome, Qual, Read, RealignmentTarget, Sequence, TargetLimits};

use crate::profile::expected_target_count;
use crate::zipf::Zipf;

/// Knobs of the synthetic workload, defaulted to the paper's published
/// shape statistics.
///
/// The limits the generated targets are built against come from
/// [`WorkloadConfig::limits`]; the default is the paper accelerator's
/// [`TargetLimits::HARDWARE`] envelope, and shape-family profiles
/// ([`crate::WorkloadProfile`]) substitute their own envelopes (e.g. the
/// deep-panel family exceeds the 256-read hardware buffer on purpose, so
/// the per-shape derivation in `ir-fpga` has something to size).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Master seed; every chromosome derives its own stream from it.
    pub seed: u64,
    /// Fraction of the paper's per-chromosome target counts to generate
    /// (1.0 = full NA12878 scale; default 1e-3 for laptop-scale runs).
    pub scale: f64,
    /// Mean number of *alternative* consensuses per target (total is
    /// capped at `limits.max_consensuses` including the reference).
    pub mean_alt_consensuses: f64,
    /// Minimum reads per target (paper: 10).
    pub min_reads: usize,
    /// Maximum reads per target (paper/hardware: 256).
    pub max_reads: usize,
    /// Read length in bases (Illumina short reads, ~250 bp).
    pub read_len: usize,
    /// Minimum consensus/interval length in bases.
    pub min_consensus_len: usize,
    /// Maximum consensus length (paper/hardware: 2048).
    pub max_consensus_len: usize,
    /// Per-base sequencing substitution-error rate (paper §I: reads carry
    /// 0.5%–2% errors). This is the geometric mid-point; each target draws
    /// its own rate within `error_rate_spread` of it (library prep and
    /// locus effects), which is one source of the per-target compute
    /// variance Figure 7 illustrates.
    pub base_error_rate: f64,
    /// Log-uniform spread factor of the per-target error rate: a target's
    /// rate lies in `[base/spread, base×spread]`.
    pub error_rate_spread: f64,
    /// Upper bound on the per-target fraction of mismapped reads (reads
    /// whose sequence comes from elsewhere in the genome — paralogs,
    /// contaminants). Mismapped reads match no consensus anywhere, so
    /// their running WHD sums hug the minimum and computation pruning
    /// barely fires: they are the "slow" reads behind the paper's 8×
    /// same-size compute variance.
    pub max_mismapped_fraction: f64,
    /// Probability a target carries a true INDEL variant.
    pub variant_probability: f64,
    /// Zipf exponent of the coverage imbalance (§II-C).
    pub zipf_exponent: f64,
    /// Shape envelope the generated targets are validated against (and the
    /// alternative-consensus count is capped by). Defaults to the paper
    /// accelerator's hardware limits.
    pub limits: TargetLimits,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0x1000_6e6f_6d65,
            scale: 1e-3,
            mean_alt_consensuses: 3.0,
            min_reads: 10,
            max_reads: 256,
            read_len: 250,
            min_consensus_len: 320,
            max_consensus_len: 2048,
            base_error_rate: 0.01,
            error_rate_spread: 4.0,
            max_mismapped_fraction: 0.4,
            variant_probability: 0.6,
            zipf_exponent: 1.0,
            limits: TargetLimits::HARDWARE,
        }
    }
}

/// All generated targets for one chromosome.
#[derive(Debug, Clone)]
pub struct ChromosomeWorkload {
    /// Which chromosome.
    pub chromosome: Chromosome,
    /// The generated targets, ordered by start position.
    pub targets: Vec<RealignmentTarget>,
}

impl ChromosomeWorkload {
    /// Shape statistics of the workload.
    pub fn stats(&self) -> WorkloadStats {
        let mut stats = WorkloadStats {
            num_targets: self.targets.len(),
            ..WorkloadStats::default()
        };
        for t in &self.targets {
            let shape = t.shape();
            stats.total_reads += shape.num_reads as u64;
            stats.total_consensuses += shape.num_consensuses as u64;
            stats.worst_case_comparisons += shape.worst_case_comparisons();
            stats.input_bytes += shape.input_bytes();
            stats.max_reads = stats.max_reads.max(shape.num_reads);
            stats.max_consensus_len = stats
                .max_consensus_len
                .max(shape.consensus_lens.iter().copied().max().unwrap_or(0));
        }
        stats
    }
}

/// Aggregate shape statistics of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Number of targets.
    pub num_targets: usize,
    /// Total reads across targets.
    pub total_reads: u64,
    /// Total consensuses (including references).
    pub total_consensuses: u64,
    /// Σ worst-case comparisons (the naive algorithm's work).
    pub worst_case_comparisons: u64,
    /// Total input bytes the accelerator would transfer.
    pub input_bytes: u64,
    /// Largest read count in any target.
    pub max_reads: usize,
    /// Longest consensus in any target.
    pub max_consensus_len: usize,
}

/// Ground truth for one generated read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadTruth {
    /// The read's true offset within its source sequence (haplotype
    /// coordinates for carriers, reference coordinates otherwise).
    pub source_offset: usize,
    /// Whether the read was sampled from the variant haplotype.
    pub carrier: bool,
    /// Whether the read is a mismapped/foreign read.
    pub mismapped: bool,
}

/// Ground truth for one generated target — what a perfect realigner
/// should recover.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetTruth {
    /// Whether the locus carries a real INDEL variant.
    pub has_variant: bool,
    /// Index of the true haplotype among the target's consensuses
    /// (`Some(1)` for variant targets — the generator always lists the
    /// true haplotype first among the alternatives).
    pub true_consensus: Option<usize>,
    /// Per-read ground truth, in read order.
    pub reads: Vec<ReadTruth>,
}

/// Checks a user-supplied workload scale: a fraction of the paper's full
/// NA12878 workload in `(0, 1]`.
///
/// Every front end that takes a scale (the `IR_SCALE` knob, `ir-cli
/// --scale`) calls this before building a [`WorkloadGenerator`], so zero,
/// negative and NaN scales (which [`WorkloadGenerator::new`] rejects with
/// a panic) and scales above 1 (which size allocations past any host's
/// memory) become an error message instead.
///
/// # Errors
///
/// Returns why `scale` is rejected.
///
/// # Example
///
/// ```
/// use ir_workloads::check_scale;
///
/// assert_eq!(check_scale(5e-3), Ok(5e-3));
/// assert!(check_scale(0.0).is_err());
/// assert!(check_scale(f64::NAN).is_err());
/// assert!(check_scale(1e9).is_err());
/// ```
pub fn check_scale(scale: f64) -> Result<f64, String> {
    if scale > 0.0 && scale <= 1.0 {
        Ok(scale)
    } else {
        Err("out of range (want a fraction in (0, 1])".to_string())
    }
}

/// Deterministic generator of synthetic chromosome workloads.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
}

impl WorkloadGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero scale,
    /// read length exceeding the minimum consensus length, or read-count
    /// bounds out of order).
    pub fn new(config: WorkloadConfig) -> Self {
        assert!(config.scale > 0.0, "scale must be positive");
        assert!(
            config.read_len <= config.min_consensus_len,
            "reads must fit in the shortest consensus"
        );
        assert!(config.min_reads >= 1 && config.min_reads <= config.max_reads);
        assert!(
            config.max_reads <= config.limits.max_reads,
            "read count bound exceeds the shape limits"
        );
        assert!(
            config.max_consensus_len <= config.limits.max_consensus_len,
            "consensus length bound exceeds the shape limits"
        );
        assert!(
            config.read_len <= config.limits.max_read_len,
            "read length exceeds the shape limits"
        );
        assert!(
            config.limits.max_consensuses >= 2,
            "shape limits must admit a reference plus one alternative"
        );
        WorkloadGenerator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Number of targets this generator will produce for `chromosome` at
    /// the configured scale.
    pub fn target_count(&self, chromosome: Chromosome) -> usize {
        ((expected_target_count(chromosome) as f64 * self.config.scale).round() as usize).max(1)
    }

    /// Generates the workload for one chromosome. Deterministic in
    /// `(config.seed, chromosome)`.
    pub fn chromosome(&self, chromosome: Chromosome) -> ChromosomeWorkload {
        let count = self.target_count(chromosome);
        let chr_id = match chromosome {
            Chromosome::Autosome(n) => u64::from(n),
            Chromosome::X => 23,
            Chromosome::Y => 24,
        };
        let mut rng =
            StdRng::seed_from_u64(self.config.seed ^ (chr_id.wrapping_mul(0xa076_1d64_78bd_642f)));
        let span = chromosome.length() / (count as u64 + 1);
        let targets = (0..count)
            .map(|i| self.generate_target(&mut rng, span * (i as u64 + 1)).0)
            .collect();
        ChromosomeWorkload {
            chromosome,
            targets,
        }
    }

    /// Generates all 22 autosome workloads (the paper's evaluation set).
    pub fn autosomes(&self) -> Vec<ChromosomeWorkload> {
        Chromosome::autosomes()
            .map(|chr| self.chromosome(chr))
            .collect()
    }

    /// Generates `count` standalone targets (for microbenchmarks).
    pub fn targets(&self, count: usize, seed: u64) -> Vec<RealignmentTarget> {
        self.targets_with_truth(count, seed)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    /// Generates `count` standalone targets together with their ground
    /// truth, for accuracy evaluation.
    pub fn targets_with_truth(
        &self,
        count: usize,
        seed: u64,
    ) -> Vec<(RealignmentTarget, TargetTruth)> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ seed);
        (0..count)
            .map(|i| self.generate_target(&mut rng, 1000 * (i as u64 + 1)))
            .collect()
    }

    fn random_sequence(&self, rng: &mut StdRng, len: usize) -> Sequence {
        (0..len)
            .map(|_| Base::from_index(rng.random_range(0..4)))
            .collect()
    }

    /// Applies a random 1–8 bp insertion or deletion to `reference`,
    /// keeping the result within the hardware length limits.
    fn apply_indel(&self, rng: &mut StdRng, reference: &Sequence) -> Sequence {
        let len = reference.len();
        let indel_len = rng.random_range(1..=8usize);
        let margin = self.config.read_len / 2;
        let pos = rng.random_range(margin..len.saturating_sub(margin).max(margin + 1));
        let mut bases: Vec<Base> = reference.bases().to_vec();
        let deletion = rng.random_bool(0.5);
        if deletion
            && len - indel_len >= self.config.read_len.max(self.config.min_consensus_len / 2)
        {
            bases.drain(pos..(pos + indel_len).min(len));
        } else if len + indel_len <= self.config.max_consensus_len {
            let insert: Vec<Base> = (0..indel_len)
                .map(|_| Base::from_index(rng.random_range(0..4)))
                .collect();
            for (offset, b) in insert.into_iter().enumerate() {
                bases.insert(pos + offset, b);
            }
        }
        Sequence::new(bases)
    }

    /// Samples the number of reads for a target from the Zipf coverage
    /// model: rank-1 intervals saturate the 256-read buffer, deeper ranks
    /// thin out toward `min_reads`.
    fn sample_read_count(&self, rng: &mut StdRng, zipf: &Zipf) -> usize {
        let rank = zipf.sample(rng);
        (self.config.max_reads / rank).clamp(self.config.min_reads, self.config.max_reads)
    }

    fn generate_target(
        &self,
        rng: &mut StdRng,
        start_pos: u64,
    ) -> (RealignmentTarget, TargetTruth) {
        let cfg = &self.config;
        // Interval length: heavily skewed toward short intervals (most IR
        // sites are a few hundred bases around an isolated INDEL), with an
        // occasional near-maximal repeat-region interval — the long tail
        // behind the paper's "target sizes vary wildly".
        let u: f64 = rng.random();
        let m = cfg.min_consensus_len
            + ((cfg.max_consensus_len - cfg.min_consensus_len) as f64 * u * u * u) as usize;
        let reference = self.random_sequence(rng, m);

        // True sample haplotype: an INDEL away from the reference (or the
        // reference itself for variant-free targets).
        let has_variant = rng.random_bool(cfg.variant_probability);
        let haplotype = if has_variant {
            self.apply_indel(rng, &reference)
        } else {
            reference.clone()
        };

        // Alternative consensuses: the true haplotype plus spurious
        // candidates assembled from other INDEL hypotheses.
        let n_alts = {
            // Geometric with the configured mean, at least 1, capped so the
            // total (with reference) stays within the shape limits (31
            // alternatives for the hardware envelope's 32 consensuses).
            let p = 1.0 / cfg.mean_alt_consensuses.max(1.0);
            let cap = cfg.limits.max_consensuses - 1;
            let mut n = 1usize;
            while n < cap && rng.random::<f64>() > p {
                n += 1;
            }
            n
        };
        let mut consensuses = Vec::with_capacity(n_alts);
        if has_variant {
            consensuses.push(haplotype.clone());
        }
        while consensuses.len() < n_alts {
            consensuses.push(self.apply_indel(rng, &reference));
        }

        // Reads: drawn from the haplotype (variant carriers) or the
        // reference, with substitution errors and Phred-consistent quality.
        let zipf = Zipf::new(24, cfg.zipf_exponent);
        let num_reads = self.sample_read_count(rng, &zipf);
        let carrier_fraction = if has_variant {
            if rng.random_bool(0.5) {
                0.5 // heterozygous
            } else {
                1.0 // homozygous
            }
        } else {
            0.0
        };

        // Per-target heterogeneity: a locus-specific error rate and a
        // locus-specific fraction of mismapped reads (both skewed low).
        let spread = cfg.error_rate_spread.max(1.0);
        let error_rate = cfg.base_error_rate * spread.powf(rng.random_range(-1.0..1.0f64));
        let mismapped_fraction = cfg.max_mismapped_fraction * rng.random::<f64>().powi(2);

        let mut reads = Vec::with_capacity(num_reads);
        let mut read_truths = Vec::with_capacity(num_reads);
        for j in 0..num_reads {
            let mismapped = rng.random::<f64>() < mismapped_fraction;
            let max_offset = reference.len().min(haplotype.len()) - cfg.read_len;
            // Reads overlap the interval if *either* endpoint lands inside
            // (paper Figure 10), so a read's alignment may hang off either
            // edge; clipping pins those reads to the boundary offsets.
            // Sampling over the extended span and clamping reproduces the
            // resulting point masses at offset 0 and max_offset.
            let span = max_offset as i64 + cfg.read_len as i64 / 2;
            let virtual_offset = rng.random_range(-(cfg.read_len as i64) / 2..=span);
            let offset = virtual_offset.clamp(0, max_offset as i64) as usize;
            let mut quals = Vec::with_capacity(cfg.read_len);
            let carrier = !mismapped && rng.random::<f64>() < carrier_fraction;
            let mut bases: Vec<Base> = if mismapped {
                // Foreign sequence: matches no consensus anywhere.
                (0..cfg.read_len)
                    .map(|_| Base::from_index(rng.random_range(0..4)))
                    .collect()
            } else {
                let source = if carrier { &haplotype } else { &reference };
                source.bases()[offset..offset + cfg.read_len].to_vec()
            };
            read_truths.push(ReadTruth {
                source_offset: offset,
                carrier,
                mismapped,
            });
            for b in &mut bases {
                if rng.random::<f64>() < error_rate {
                    // Substitution error with a correspondingly low quality.
                    let wrong = Base::from_index(rng.random_range(0..4));
                    *b = wrong;
                    quals.push(rng.random_range(10..=30));
                } else {
                    quals.push(rng.random_range(30..=41));
                }
            }
            let read = Read::new(
                format!("t{start_pos}r{j}"),
                Sequence::new(bases),
                Qual::from_raw_scores(&quals).expect("scores in range"),
                offset as u64,
            )
            .expect("generated read is valid");
            reads.push(read);
        }

        let target = RealignmentTarget::builder(start_pos)
            .limits(cfg.limits)
            .reference(reference)
            .consensuses(consensuses)
            .reads(reads)
            .build()
            .expect("generated target respects the configured shape limits");
        let truth = TargetTruth {
            has_variant,
            true_consensus: has_variant.then_some(1),
            reads: read_truths,
        };
        (target, truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_generator() -> WorkloadGenerator {
        WorkloadGenerator::new(WorkloadConfig {
            scale: 2e-5,
            read_len: 60,
            min_consensus_len: 80,
            max_consensus_len: 512,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let generator = small_generator();
        let a = generator.chromosome(Chromosome::Autosome(21));
        let b = generator.chromosome(Chromosome::Autosome(21));
        assert_eq!(a.targets, b.targets);
    }

    #[test]
    fn different_chromosomes_differ() {
        let generator = small_generator();
        let a = generator.chromosome(Chromosome::Autosome(21));
        let b = generator.chromosome(Chromosome::Autosome(22));
        assert_ne!(a.targets, b.targets);
    }

    #[test]
    fn counts_follow_profile_and_scale() {
        let generator = small_generator();
        let ch21 = generator.target_count(Chromosome::Autosome(21));
        let ch2 = generator.target_count(Chromosome::Autosome(2));
        assert!(ch2 > 5 * ch21, "ch2 {ch2} vs ch21 {ch21}");
        // Paper counts × scale.
        assert!((ch21 as f64 - 48_000.0 * 2e-5).abs() <= 1.0);
    }

    #[test]
    fn targets_respect_hardware_limits() {
        let generator = small_generator();
        for t in &generator.chromosome(Chromosome::Autosome(21)).targets {
            let shape = t.shape();
            assert!(shape.num_consensuses <= 32);
            assert!((generator.config().min_reads..=256).contains(&shape.num_reads));
            for &len in &shape.consensus_lens {
                assert!(len <= 2048);
                assert!(len >= generator.config().read_len);
            }
            for &len in &shape.read_lens {
                assert_eq!(len, generator.config().read_len);
            }
        }
    }

    #[test]
    fn read_counts_vary_wildly() {
        // The Zipf coverage model must yield both saturated and thin
        // targets (the variance Figure 7 exploits).
        let generator = WorkloadGenerator::new(WorkloadConfig {
            scale: 1e-4,
            read_len: 60,
            min_consensus_len: 80,
            max_consensus_len: 512,
            ..WorkloadConfig::default()
        });
        let workload = generator.chromosome(Chromosome::Autosome(2));
        let counts: Vec<usize> = workload.targets.iter().map(|t| t.num_reads()).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max >= 4 * min, "spread too small: {min}..{max}");
    }

    #[test]
    fn variant_targets_gain_a_matching_consensus() {
        // On average, enough targets must carry a recoverable variant for
        // realignment to do real work: check that generated targets
        // realign reads under the golden model.
        let generator = small_generator();
        let targets = generator.targets(40, 7);
        let realigner = ir_core::IndelRealigner::new();
        let realigned: usize = targets
            .iter()
            .map(|t| realigner.realign(t).realigned_count())
            .sum();
        assert!(
            realigned > 0,
            "no reads realigned across 40 generated targets"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let generator = small_generator();
        let workload = generator.chromosome(Chromosome::Autosome(21));
        let stats = workload.stats();
        assert_eq!(stats.num_targets, workload.targets.len());
        assert!(stats.total_reads >= (stats.num_targets * generator.config().min_reads) as u64);
        assert!(stats.worst_case_comparisons > 0);
        assert!(stats.max_consensus_len <= 2048);
    }

    #[test]
    fn truth_is_consistent_with_targets() {
        let generator = small_generator();
        let pairs = generator.targets_with_truth(25, 42);
        let plain = generator.targets(25, 42);
        for ((target, truth), expected) in pairs.iter().zip(&plain) {
            assert_eq!(
                target, expected,
                "truth variant must not perturb generation"
            );
            assert_eq!(truth.reads.len(), target.num_reads());
            assert_eq!(truth.has_variant, truth.true_consensus.is_some());
            if let Some(idx) = truth.true_consensus {
                assert!(idx < target.num_consensuses());
            }
        }
    }

    #[test]
    fn carrier_reads_match_their_true_consensus() {
        let generator = WorkloadGenerator::new(WorkloadConfig {
            base_error_rate: 0.0, // error-free so the match is exact
            read_len: 60,
            min_consensus_len: 80,
            max_consensus_len: 512,
            ..WorkloadConfig::default()
        });
        let mut checked = 0;
        for (target, truth) in generator.targets_with_truth(40, 5) {
            let Some(true_idx) = truth.true_consensus else {
                continue;
            };
            let haplotype = target.consensus(true_idx);
            for (j, read_truth) in truth.reads.iter().enumerate() {
                if read_truth.carrier && !read_truth.mismapped {
                    let read = target.read(j);
                    let window = haplotype.slice(
                        read_truth.source_offset,
                        read_truth.source_offset + read.len(),
                    );
                    assert_eq!(
                        read.bases(),
                        &window,
                        "carrier read must slice its haplotype"
                    );
                    checked += 1;
                }
            }
        }
        assert!(
            checked > 50,
            "expected plenty of carrier reads, saw {checked}"
        );
    }

    #[test]
    fn mismapped_truth_marks_foreign_reads() {
        let generator = small_generator();
        let mut mismapped = 0usize;
        let mut total = 0usize;
        for (_, truth) in generator.targets_with_truth(60, 9) {
            for r in &truth.reads {
                total += 1;
                mismapped += usize::from(r.mismapped);
                assert!(
                    !(r.mismapped && r.carrier),
                    "foreign reads cannot be carriers"
                );
            }
        }
        let fraction = mismapped as f64 / total as f64;
        assert!(
            (0.02..0.35).contains(&fraction),
            "mismapped fraction {fraction} outside the configured band"
        );
    }

    #[test]
    #[should_panic(expected = "reads must fit")]
    fn rejects_inconsistent_config() {
        let _ = WorkloadGenerator::new(WorkloadConfig {
            read_len: 500,
            min_consensus_len: 400,
            ..WorkloadConfig::default()
        });
    }
}
