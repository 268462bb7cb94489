//! Phred quality scores.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::GenomeError;

/// ASCII offset of the Sanger/Illumina Phred encoding (`!` = score 0).
pub const PHRED_ASCII_OFFSET: u8 = 33;

/// Maximum raw Phred score representable in the Sanger encoding
/// (`~` = score 93). Illumina instruments emit scores ≤ 41 in practice.
pub const MAX_PHRED_SCORE: u8 = 93;

/// A vector of per-base Phred quality scores.
///
/// A Phred score `q` predicts a base-calling error probability of
/// `10^(-q/10)`: q=10 means 90% accuracy, q=60 means 99.9999% (paper
/// appendix glossary). The weighted Hamming distance of Algorithm 1 sums
/// these scores at mismatching positions, so the accelerator streams them as
/// **one byte per score**, exactly like bases.
///
/// # Example
///
/// ```
/// use ir_genome::Qual;
///
/// let q = Qual::from_phred_ascii(b"+5N").unwrap();
/// assert_eq!(q.scores(), &[10, 20, 45]);
/// assert!((q.error_probability(0) - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Qual {
    scores: Vec<u8>,
}

impl Qual {
    /// Creates a quality vector from raw Phred scores (not ASCII-encoded).
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidQuality`] if any score exceeds
    /// [`MAX_PHRED_SCORE`].
    pub fn from_raw_scores(scores: &[u8]) -> Result<Self, GenomeError> {
        Self::from_scores(scores.to_vec())
    }

    /// [`Qual::from_raw_scores`] taking ownership of the scores, so a
    /// caller that built them pays no copy.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidQuality`] if any score exceeds
    /// [`MAX_PHRED_SCORE`].
    pub fn from_scores(scores: Vec<u8>) -> Result<Self, GenomeError> {
        if let Some(&bad) = scores.iter().find(|&&s| s > MAX_PHRED_SCORE) {
            return Err(GenomeError::InvalidQuality(bad));
        }
        Ok(Qual { scores })
    }

    /// Parses a Sanger/Illumina Phred+33 ASCII string (e.g. a FASTQ quality
    /// line).
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidQuality`] for bytes outside the
    /// printable `!`..=`~` range.
    pub fn from_phred_ascii(ascii: &[u8]) -> Result<Self, GenomeError> {
        let mut scores = Vec::with_capacity(ascii.len());
        for &byte in ascii {
            if !(PHRED_ASCII_OFFSET..=PHRED_ASCII_OFFSET + MAX_PHRED_SCORE).contains(&byte) {
                return Err(GenomeError::InvalidQuality(byte));
            }
            scores.push(byte - PHRED_ASCII_OFFSET);
        }
        Ok(Qual { scores })
    }

    /// Creates a quality vector of `len` copies of `score`, the common case
    /// in synthetic workloads.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidQuality`] if `score` exceeds
    /// [`MAX_PHRED_SCORE`].
    pub fn uniform(score: u8, len: usize) -> Result<Self, GenomeError> {
        if score > MAX_PHRED_SCORE {
            return Err(GenomeError::InvalidQuality(score));
        }
        Ok(Qual {
            scores: vec![score; len],
        })
    }

    /// Returns the raw Phred scores — the byte stream the accelerator's
    /// quality-score buffer holds.
    pub fn scores(&self) -> &[u8] {
        &self.scores
    }

    /// Returns the number of scores.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Returns `true` if there are no scores.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Returns the score at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn score(&self, index: usize) -> u8 {
        self.scores[index]
    }

    /// Returns the predicted base-calling error probability at `index`
    /// (`10^(-q/10)`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn error_probability(&self, index: usize) -> f64 {
        10f64.powf(-(f64::from(self.scores[index])) / 10.0)
    }

    /// Encodes the scores as a Phred+33 ASCII string.
    pub fn to_phred_ascii(&self) -> Vec<u8> {
        self.scores.iter().map(|s| s + PHRED_ASCII_OFFSET).collect()
    }

    /// Sum of all scores, as used for a fully-mismatching read in the
    /// weighted Hamming distance.
    pub fn total(&self) -> u64 {
        self.scores.iter().map(|&s| u64::from(s)).sum()
    }

    /// Iterates over the raw scores.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, u8>> {
        self.scores.iter().copied()
    }
}

impl fmt::Display for Qual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for byte in self.to_phred_ascii() {
            write!(f, "{}", byte as char)?;
        }
        Ok(())
    }
}

impl FromIterator<u8> for Qual {
    /// Collects raw scores, clamping anything above [`MAX_PHRED_SCORE`].
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Qual {
            scores: iter.into_iter().map(|s| s.min(MAX_PHRED_SCORE)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_scores_round_trip() {
        let q = Qual::from_raw_scores(&[0, 10, 41, 93]).unwrap();
        assert_eq!(q.scores(), &[0, 10, 41, 93]);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn rejects_out_of_range_scores() {
        assert!(Qual::from_raw_scores(&[94]).is_err());
        assert!(Qual::from_raw_scores(&[255]).is_err());
        assert!(Qual::from_scores(vec![41, 94]).is_err());
        assert_eq!(
            Qual::from_scores(vec![0, 93]).unwrap(),
            Qual::from_raw_scores(&[0, 93]).unwrap()
        );
    }

    #[test]
    fn ascii_round_trip() {
        let ascii = b"!I~+5";
        let q = Qual::from_phred_ascii(ascii).unwrap();
        assert_eq!(q.to_phred_ascii(), ascii);
        assert_eq!(q.score(0), 0);
        assert_eq!(q.score(1), 40);
        assert_eq!(q.score(2), 93);
    }

    #[test]
    fn rejects_non_printable_ascii() {
        assert!(Qual::from_phred_ascii(b" ").is_err());
        assert!(Qual::from_phred_ascii(&[0x7f]).is_err());
    }

    #[test]
    fn uniform_fills() {
        let q = Qual::uniform(30, 5).unwrap();
        assert_eq!(q.scores(), &[30; 5]);
        assert!(Qual::uniform(100, 1).is_err());
    }

    #[test]
    fn error_probabilities_match_phred_definition() {
        let q = Qual::from_raw_scores(&[10, 20, 30, 60]).unwrap();
        assert!((q.error_probability(0) - 1e-1).abs() < 1e-12);
        assert!((q.error_probability(1) - 1e-2).abs() < 1e-12);
        assert!((q.error_probability(2) - 1e-3).abs() < 1e-12);
        assert!((q.error_probability(3) - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn total_sums_scores() {
        let q = Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap();
        assert_eq!(q.total(), 85);
    }

    #[test]
    fn from_iterator_clamps() {
        let q: Qual = [10u8, 200u8].into_iter().collect();
        assert_eq!(q.scores(), &[10, MAX_PHRED_SCORE]);
    }

    #[test]
    fn empty_is_empty() {
        let q = Qual::default();
        assert!(q.is_empty());
        assert_eq!(q.total(), 0);
    }

    #[test]
    fn display_is_ascii() {
        let q = Qual::from_raw_scores(&[0, 40]).unwrap();
        assert_eq!(q.to_string(), "!I");
    }
}
