//! Order statistics and the SLO accounting the benchmark reports.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty slice or `p` outside
/// `(0, 100]`.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it, the least that makes a tail percentile worth reporting.
pub fn has_ten_beyond(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// Modeled latency of every *offered* request: completed requests carry
/// their latency, refused ones count as missing every limit (`+inf`).
pub fn offered_latencies(completed: impl IntoIterator<Item = f64>, refused: usize) -> Vec<f64> {
    let mut lat: Vec<f64> = completed.into_iter().collect();
    lat.extend(std::iter::repeat_n(f64::INFINITY, refused));
    lat
}

/// Requests finished within `deadline_s`, divided by requests offered
/// (1.0 for an empty stream).
pub fn slo_attainment(offered: &[f64], deadline_s: f64) -> f64 {
    if offered.is_empty() {
        return 1.0;
    }
    offered.iter().filter(|&&l| l <= deadline_s).count() as f64 / offered.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&[5.0, 1.0], 50.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 0.0), None);
        assert_eq!(nearest_rank(&v, 101.0), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(has_ten_beyond(1000, 99.0));
        assert!(!has_ten_beyond(999, 99.0));
        assert!(has_ten_beyond(100, 90.0));
        assert!(!has_ten_beyond(100, 95.0));
        assert!(!has_ten_beyond(0, 50.0));
    }

    #[test]
    fn refusals_count_as_misses_over_offered_requests() {
        // 990 requests finish in 1 ms, 10 are refused: the library's
        // completed-only view would read 100% attainment.
        let offered = offered_latencies(std::iter::repeat_n(1e-3, 990), 10);
        assert_eq!(offered.len(), 1000);
        assert!((slo_attainment(&offered, 10e-3) - 0.99).abs() < 1e-12);
        // p99 is rank 990, still a completed request; p99.9 is refused.
        assert_eq!(nearest_rank(&offered, 99.0), Some(1e-3));
        assert_eq!(nearest_rank(&offered, 99.9), Some(f64::INFINITY));
        // Half refused: attainment halves and p99 is infinite.
        let half = offered_latencies([1e-3; 500], 500);
        assert_eq!(slo_attainment(&half, 10e-3), 0.5);
        assert_eq!(nearest_rank(&half, 99.0), Some(f64::INFINITY));
        // A completed request past the deadline misses too.
        let late = offered_latencies([1e-3, 20e-3], 0);
        assert_eq!(slo_attainment(&late, 10e-3), 0.5);
        assert_eq!(slo_attainment(&[], 10e-3), 1.0);
    }
}
