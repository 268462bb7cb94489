//! The weighted Hamming distance kernel (`Calc_WHD`, Algorithm 1 part 1.1).

use ir_genome::{Qual, Sequence};

/// Computes the weighted Hamming distance between `read` and the window of
/// `consensus` starting at offset `k`: the sum of the read's quality scores
/// at every position where the bases differ.
///
/// This is the paper's `Calc_WHD` (Algorithm 1, lines 9–12). `N` bases are
/// compared literally — `N` vs `N` matches, `N` vs anything else
/// mismatches — matching the byte-compare the hardware performs.
///
/// # Panics
///
/// Panics if `k + read.len() > consensus.len()` (the caller enumerates only
/// valid offsets) or if `quals` is shorter than `read`.
///
/// # Example
///
/// ```
/// use ir_core::calc_whd;
/// use ir_genome::{Qual, Sequence};
///
/// let cons: Sequence = "CCTTAGA".parse()?;
/// let read: Sequence = "TGAA".parse()?;
/// let quals = Qual::from_raw_scores(&[10, 20, 45, 10])?;
/// assert_eq!(calc_whd(&cons, &read, &quals, 2), 30); // the paper's Fig 4, k = 2
/// # Ok::<(), ir_genome::GenomeError>(())
/// ```
pub fn calc_whd(consensus: &Sequence, read: &Sequence, quals: &Qual, k: usize) -> u64 {
    let cons = consensus.bases();
    let bases = read.bases();
    let scores = quals.scores();
    assert!(k + bases.len() <= cons.len(), "offset k out of range");

    let mut whd = 0u64;
    for n in 0..bases.len() {
        if cons[k + n] != bases[n] {
            whd += u64::from(scores[n]);
        }
    }
    whd
}

/// Outcome of a bounded (prunable) WHD evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundedWhd {
    /// The running sum at the point evaluation stopped. Only meaningful as
    /// a distance when `pruned` is `false`; when pruned it is merely the
    /// first partial sum that exceeded the bound.
    pub whd: u64,
    /// Number of base comparisons actually executed.
    pub comparisons: u64,
    /// Whether evaluation stopped early because the running sum exceeded
    /// the bound.
    pub pruned: bool,
}

/// Computes the weighted Hamming distance with **computation pruning**
/// (paper §III-A): evaluation stops as soon as the running sum exceeds
/// `bound`, because a distance already worse than the current minimum can
/// never become the minimum.
///
/// Pruning is exact: it never changes which offset attains the minimum,
/// because the minimum is only updated on strictly smaller distances and a
/// pruned evaluation is guaranteed to finish `> bound`.
///
/// # Panics
///
/// Same conditions as [`calc_whd`].
///
/// # Example
///
/// ```
/// use ir_core::calc_whd_bounded;
/// use ir_genome::{Qual, Sequence};
///
/// let cons: Sequence = "CCTTAGA".parse()?;
/// let read: Sequence = "TGAA".parse()?;
/// let quals = Qual::from_raw_scores(&[10, 20, 45, 10])?;
///
/// // With a bound of 25 the k = 0 evaluation (true WHD 85) stops early.
/// let out = calc_whd_bounded(&cons, &read, &quals, 0, 25);
/// assert!(out.pruned);
/// assert!(out.comparisons < 4);
/// # Ok::<(), ir_genome::GenomeError>(())
/// ```
pub fn calc_whd_bounded(
    consensus: &Sequence,
    read: &Sequence,
    quals: &Qual,
    k: usize,
    bound: u64,
) -> BoundedWhd {
    let cons = consensus.bases();
    let bases = read.bases();
    let scores = quals.scores();
    assert!(k + bases.len() <= cons.len(), "offset k out of range");

    let mut whd = 0u64;
    let mut comparisons = 0u64;
    for n in 0..bases.len() {
        comparisons += 1;
        if cons[k + n] != bases[n] {
            whd += u64::from(scores[n]);
            if whd > bound {
                return BoundedWhd {
                    whd,
                    comparisons,
                    pruned: true,
                };
            }
        }
    }
    BoundedWhd {
        whd,
        comparisons,
        pruned: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Sequence, Sequence, Qual) {
        (
            "CCTTAGA".parse().unwrap(),
            "TGAA".parse().unwrap(),
            Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
        )
    }

    #[test]
    fn figure4_read0_all_offsets() {
        let (cons, read, quals) = fixture();
        // Paper Figure 4, top-left panel.
        assert_eq!(calc_whd(&cons, &read, &quals, 0), 85);
        assert_eq!(calc_whd(&cons, &read, &quals, 1), 75);
        assert_eq!(calc_whd(&cons, &read, &quals, 2), 30);
        assert_eq!(calc_whd(&cons, &read, &quals, 3), 65);
    }

    #[test]
    fn figure4_read1_all_offsets() {
        let cons: Sequence = "CCTTAGA".parse().unwrap();
        let read: Sequence = "CCTC".parse().unwrap();
        let quals = Qual::from_raw_scores(&[10, 60, 30, 20]).unwrap();
        assert_eq!(calc_whd(&cons, &read, &quals, 0), 20);
        assert_eq!(calc_whd(&cons, &read, &quals, 1), 80);
        assert_eq!(calc_whd(&cons, &read, &quals, 2), 120);
        assert_eq!(calc_whd(&cons, &read, &quals, 3), 120);
    }

    #[test]
    fn identical_window_has_zero_distance() {
        let cons: Sequence = "ACCTGAA".parse().unwrap();
        let read: Sequence = "TGAA".parse().unwrap();
        let quals = Qual::uniform(40, 4).unwrap();
        assert_eq!(calc_whd(&cons, &read, &quals, 3), 0);
    }

    #[test]
    #[should_panic(expected = "offset k out of range")]
    fn panics_on_out_of_range_offset() {
        let (cons, read, quals) = fixture();
        calc_whd(&cons, &read, &quals, 4);
    }

    #[test]
    fn bounded_matches_full_when_not_pruned() {
        let (cons, read, quals) = fixture();
        for k in 0..4 {
            let full = calc_whd(&cons, &read, &quals, k);
            let bounded = calc_whd_bounded(&cons, &read, &quals, k, u64::MAX);
            assert!(!bounded.pruned);
            assert_eq!(bounded.whd, full);
            assert_eq!(bounded.comparisons, 4);
        }
    }

    #[test]
    fn bounded_stops_early() {
        let (cons, read, quals) = fixture();
        // k = 0 accumulates 10, 30, 75, 85; bound 25 stops after the second
        // mismatch.
        let out = calc_whd_bounded(&cons, &read, &quals, 0, 25);
        assert!(out.pruned);
        assert_eq!(out.comparisons, 2);
        assert_eq!(out.whd, 30);
    }

    #[test]
    fn bound_is_exclusive() {
        let (cons, read, quals) = fixture();
        // True WHD at k = 2 is 30; with bound exactly 30 evaluation must
        // complete (pruning fires only on strictly-greater sums).
        let out = calc_whd_bounded(&cons, &read, &quals, 2, 30);
        assert!(!out.pruned);
        assert_eq!(out.whd, 30);
    }

    #[test]
    fn zero_quality_mismatches_never_prune() {
        let cons: Sequence = "AAAA".parse().unwrap();
        let read: Sequence = "TTTT".parse().unwrap();
        let quals = Qual::uniform(0, 4).unwrap();
        let out = calc_whd_bounded(&cons, &read, &quals, 0, 0);
        // All mismatches but all weights zero: whd stays 0, never exceeds 0.
        assert!(!out.pruned);
        assert_eq!(out.whd, 0);
    }

    #[test]
    fn n_bases_compare_literally() {
        let cons: Sequence = "NNAA".parse().unwrap();
        let read: Sequence = "NNTT".parse().unwrap();
        let quals = Qual::uniform(10, 4).unwrap();
        // N == N matches; A vs T mismatches.
        assert_eq!(calc_whd(&cons, &read, &quals, 0), 20);
    }

    #[test]
    fn max_quality_long_read_does_not_overflow() {
        // Worst-case accumulation: every base mismatches at the Phred
        // ceiling (93) on a read far longer than any sequencer produces.
        // The running sum stays far below u64::MAX and must be exact.
        use ir_genome::MAX_PHRED_SCORE;
        let len = 100_000usize;
        let cons: Sequence = "A".repeat(len).parse().unwrap();
        let read: Sequence = "T".repeat(len).parse().unwrap();
        let quals = Qual::uniform(MAX_PHRED_SCORE, len).unwrap();
        let expected = u64::from(MAX_PHRED_SCORE) * len as u64;
        assert_eq!(calc_whd(&cons, &read, &quals, 0), expected);

        let bounded = calc_whd_bounded(&cons, &read, &quals, 0, u64::MAX);
        assert!(!bounded.pruned, "u64::MAX bound can never be exceeded");
        assert_eq!(bounded.whd, expected);
        assert_eq!(bounded.comparisons, len as u64);
    }

    mod unbounded_equals_full {
        use super::*;
        use proptest::prelude::*;

        fn base_strategy() -> impl Strategy<Value = u8> {
            prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')]
        }

        prop_compose! {
            /// Arbitrary (consensus, read, quals, k) with N bases and the
            /// full Phred range, spanning word-boundary lengths.
            fn whd_inputs()(
                read_len in 1usize..=80,
                slack in 0usize..=48,
                cons_raw in prop::collection::vec(base_strategy(), 128),
                read_raw in prop::collection::vec(base_strategy(), 80),
                quals_raw in prop::collection::vec(0u8..=93, 80),
                k_frac in 0.0f64..=1.0,
            ) -> (Sequence, Sequence, Qual, usize) {
                let cons = Sequence::from_ascii(&cons_raw[..read_len + slack]).unwrap();
                let read = Sequence::from_ascii(&read_raw[..read_len]).unwrap();
                let quals = Qual::from_raw_scores(&quals_raw[..read_len]).unwrap();
                let k = (slack as f64 * k_frac) as usize; // 0..=slack
                (cons, read, quals, k)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases_env(256))]

            /// A bound of `u64::MAX` can never be exceeded, so the bounded
            /// kernel must degrade to exactly the full evaluation: same
            /// distance, never pruned, every base visited.
            #[test]
            fn bound_u64_max_is_the_identity((cons, read, quals, k) in whd_inputs()) {
                let full = calc_whd(&cons, &read, &quals, k);
                let bounded = calc_whd_bounded(&cons, &read, &quals, k, u64::MAX);
                prop_assert!(!bounded.pruned);
                prop_assert_eq!(bounded.whd, full);
                prop_assert_eq!(bounded.comparisons, read.len() as u64);
            }
        }
    }
}
