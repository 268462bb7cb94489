//! The perf-counter registry: monotonic counters, high-water-mark gauges
//! and fixed-bucket histograms.
//!
//! Keys are `block/name` or `block/<idx>/name` strings (the index is
//! zero-padded to two digits so lexicographic order is numeric order for
//! up to 100 instances — enough for the 32-unit sea). A `BTreeMap` keeps
//! iteration deterministic, which makes the CSV/JSON serializations diff-
//! stable across runs.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Number of power-of-two histogram buckets. Bucket 0 holds zeros; bucket
/// `i > 0` holds values in `[2^(i-1), 2^i)`; the last bucket is unbounded.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// A fixed-bucket (power-of-two) histogram with count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated value at percentile `p` (0–100), or `None` when the
    /// histogram is empty.
    ///
    /// The estimate is the upper edge of the first bucket whose
    /// cumulative count reaches the requested rank, clamped into
    /// `[min, max]`. The clamp is what keeps the edges honest:
    ///
    /// - a single observation reports that exact value at every `p`;
    /// - when every observation landed in the unbounded overflow bucket
    ///   (whose upper edge would be `u64::MAX`), the estimate is `max`
    ///   rather than a bucket bound four orders of magnitude away;
    /// - `p = 0` reports `min` exactly.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return Some(self.min);
        }
        // Nearest-rank: the smallest observation with at least
        // ceil(p/100 * count) observations at or below it.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let hi = if i + 1 < HISTOGRAM_BUCKETS {
                    Self::bucket_lo(i + 1) - 1
                } else {
                    u64::MAX
                };
                return Some(hi.clamp(self.min, self.max));
            }
        }
        // Unreachable (seen reaches self.count >= rank), but stay total.
        Some(self.max)
    }
}

/// The registry: three deterministic maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfCounters {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl PerfCounters {
    /// Builds the canonical `block[/idx]/name` key.
    pub fn key(block: &str, idx: Option<usize>, name: &str) -> String {
        let mut key = String::new();
        Self::write_key(&mut key, block, idx, name);
        key
    }

    /// Builds [`Self::key`] in `buf`, reusing its allocation, and returns
    /// it.
    pub(crate) fn write_key<'b>(
        buf: &'b mut String,
        block: &str,
        idx: Option<usize>,
        name: &str,
    ) -> &'b str {
        buf.clear();
        buf.push_str(block);
        if let Some(i) = idx {
            write!(buf, "/{i:02}").expect("writing to a String cannot fail");
        }
        buf.push('/');
        buf.push_str(name);
        buf
    }

    /// Adds `n` to a counter (created at zero on first touch).
    pub fn add(&mut self, key: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(key) {
            *v += n;
        } else {
            self.counters.insert(key.to_string(), n);
        }
    }

    /// Sets a counter to an absolute value (used when folding an external
    /// tally such as a `ResilienceReport` into the registry).
    pub fn set(&mut self, key: &str, v: u64) {
        self.counters.insert(key.to_string(), v);
    }

    /// Raises a high-water-mark gauge to at least `v`.
    pub fn gauge_max(&mut self, key: &str, v: u64) {
        if let Some(g) = self.gauges.get_mut(key) {
            *g = (*g).max(v);
        } else {
            self.gauges.insert(key.to_string(), v);
        }
    }

    /// Records `v` into a histogram.
    pub fn observe(&mut self, key: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(key) {
            h.observe(v);
        } else {
            self.histograms
                .entry(key.to_string())
                .or_default()
                .observe(v);
        }
    }

    /// Counter value (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Gauge value (0 if absent).
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Histogram by key.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Counters whose key starts with `prefix`, in key order.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_zero_padded() {
        assert_eq!(PerfCounters::key("unit", Some(3), "busy"), "unit/03/busy");
        assert_eq!(PerfCounters::key("dma", None, "bytes"), "dma/bytes");
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut c = PerfCounters::default();
        c.add("a/b", 2);
        c.add("a/b", 3);
        assert_eq!(c.counter("a/b"), 5);
        assert_eq!(c.counter("missing"), 0);
        c.set("a/b", 1);
        assert_eq!(c.counter("a/b"), 1);
    }

    #[test]
    fn gauges_keep_the_high_water_mark() {
        let mut c = PerfCounters::default();
        c.gauge_max("q/hwm", 4);
        c.gauge_max("q/hwm", 2);
        c.gauge_max("q/hwm", 9);
        assert_eq!(c.gauge("q/hwm"), 9);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_lo(0), 0);
        assert_eq!(Histogram::bucket_lo(1), 1);
        assert_eq!(Histogram::bucket_lo(5), 16);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 104);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 26.0).abs() < 1e-12);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 1); // 3
        assert_eq!(h.buckets[7], 1); // 100 in [64,128)
    }

    #[test]
    fn percentile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), None);
        }
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        for v in [0u64, 1, 7, 1 << 30, u64::MAX] {
            let mut h = Histogram::default();
            h.observe(v);
            for p in [0.0, 1.0, 50.0, 99.9, 100.0] {
                assert_eq!(h.percentile(p), Some(v), "v={v} p={p}");
            }
        }
    }

    #[test]
    fn percentile_with_all_samples_in_overflow_bucket_reports_max() {
        // Everything lands in the unbounded last bucket; the naive bucket
        // upper edge would be u64::MAX.
        let mut h = Histogram::default();
        let lo = Histogram::bucket_lo(HISTOGRAM_BUCKETS - 1);
        for v in [lo, lo + 10, lo * 2, u64::MAX / 2] {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.0), Some(h.min));
        assert_eq!(h.percentile(50.0), Some(h.max));
        assert_eq!(h.percentile(99.0), Some(h.max));
        assert_eq!(h.percentile(100.0), Some(h.max));
    }

    #[test]
    fn percentile_ranks_across_buckets() {
        // 90 small values in [1,2) and 10 large in [64,128): p50 sits in
        // the small bucket (upper edge 1), p95+ in the large one.
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(1);
        }
        for _ in 0..10 {
            h.observe(100);
        }
        assert_eq!(h.percentile(50.0), Some(1));
        assert_eq!(h.percentile(90.0), Some(1));
        assert_eq!(h.percentile(95.0), Some(100)); // bucket edge 127 clamps to max
        assert_eq!(h.percentile(100.0), Some(100));
        // Out-of-range p clamps rather than panicking.
        assert_eq!(h.percentile(-5.0), Some(h.min));
        assert_eq!(h.percentile(250.0), Some(h.max));
    }

    #[test]
    fn prefix_scan_is_ordered_and_bounded() {
        let mut c = PerfCounters::default();
        c.add("unit/00/busy", 1);
        c.add("unit/01/busy", 2);
        c.add("dma/bytes", 3);
        c.add("unita/x", 4);
        let keys: Vec<&str> = c.counters_with_prefix("unit/").map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["unit/00/busy", "unit/01/busy"]);
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut c = PerfCounters::default();
        c.add("z/last", 1);
        c.add("a/first", 1);
        let keys: Vec<&str> = c.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a/first", "z/last"]);
    }
}
