//! The functional oracle: a memoized front-end over the unit datapath
//! model.
//!
//! The discrete-event backend separates *what* a unit computes (the
//! [`UnitRun`]: grid, outcomes, cycle breakdown) from *when* the schedule
//! makes it happen. The "what" is a pure function of the target and the
//! handful of [`FpgaParams`] fields the datapath reads — so when the same
//! workload is replayed under several configurations that share those
//! fields (e.g. the synchronous and asynchronous schedulers over identical
//! serial parameters, or a legacy-vs-engine differential run), every
//! simulation after the first is a cache hit.
//!
//! The oracle computes through [`simulate_target_fast`], the
//! equivalence-preserving jump-to-outcome kernel, so even cold misses skip
//! per-cycle stepping. A miss under a multi-lane pruning key (IR ACC's 32
//! lanes) skips the WHD sweep altogether when the oracle already holds
//! the target's run under the `lanes = 1` sibling key (TaskP's serial
//! units) and every read is short enough that no multi-lane scan stops
//! early (96 bases at 32 lanes): the multi-lane run is then the serial
//! run with closed-form HDC cycles and comparisons
//! ([`PairRun::dense`](crate::hdc::PairRun::dense)). A Figure 9 sweep,
//! which runs TaskP before IR ACC on one oracle, does one WHD sweep per
//! target instead of two.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ir_genome::RealignmentTarget;

use crate::params::FpgaParams;
use crate::unit::{derive_from_serial, simulate_target_fast, UnitRun};

/// The [`FpgaParams`] fields that determine a [`UnitRun`]. Everything else
/// (unit count, clock, DMA, latencies) only moves work around in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TimingKey {
    lanes: usize,
    pruning: bool,
    pair_overhead_cycles: u64,
    bus_bytes: u64,
    /// `compute_overhead` by bit pattern, so the key stays `Eq + Hash`.
    compute_overhead_bits: u64,
}

impl TimingKey {
    fn of(params: &FpgaParams) -> Self {
        TimingKey {
            lanes: params.lanes,
            pruning: params.pruning,
            pair_overhead_cycles: params.pair_overhead_cycles,
            bus_bytes: params.bus_bytes,
            compute_overhead_bits: params.compute_overhead.to_bits(),
        }
    }
}

/// Memoizes [`UnitRun`]s across runs of one fixed workload.
///
/// Targets are identified by their index in the submitted slice, so one
/// oracle serves exactly one workload: create a fresh oracle when the
/// target set changes. [`Self::simulate`] returns an owned copy; the
/// event engine shares the cached entry itself, and the resilience layer
/// copies it on write (`Arc::make_mut`) before a fault changes it, so no
/// caller can write through to the cache.
///
/// A miss under a key with `lanes > 1` and pruning on is derived, not
/// swept, when the entry for the same target under the key's `lanes = 1`
/// sibling (every other field equal) is present and each of the target's
/// reads spans at most `prune_latency_blocks + 1` blocks. Every entry,
/// derived or swept, is bitwise the cold [`simulate_target_fast`] run, so
/// the order in which keys are requested never shows.
///
/// # Example
///
/// ```
/// use ir_fpga::{FpgaParams, FunctionalOracle};
/// use ir_genome::{Qual, Read, RealignmentTarget};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = RealignmentTarget::builder(20)
///     .reference("CCTTAGA".parse()?)
///     .consensus("ACCTGAA".parse()?)
///     .read(Read::new("r0", "TGAA".parse()?, Qual::from_raw_scores(&[10, 20, 45, 10])?, 0)?)
///     .build()?;
/// let mut oracle = FunctionalOracle::new();
/// let first = oracle.simulate(&target, 0, &FpgaParams::serial());
/// let again = oracle.simulate(&target, 0, &FpgaParams::serial());
/// assert_eq!(first, again);
/// assert_eq!(oracle.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct FunctionalOracle {
    cache: HashMap<(TimingKey, usize), Arc<UnitRun>>,
}

impl FunctionalOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The [`UnitRun`] for `target` (at `index` in its workload) under
    /// `params` — cached, or computed through the fast kernel and cached.
    pub fn simulate(
        &mut self,
        target: &RealignmentTarget,
        index: usize,
        params: &FpgaParams,
    ) -> UnitRun {
        UnitRun::clone(&self.shared(target, index, params))
    }

    /// [`Self::simulate`] without the copy: the cached entry itself.
    pub(crate) fn shared(
        &mut self,
        target: &RealignmentTarget,
        index: usize,
        params: &FpgaParams,
    ) -> Arc<UnitRun> {
        let key = (TimingKey::of(params), index);
        if let Some(run) = self.cache.get(&key) {
            return Arc::clone(run);
        }
        let run = Arc::new(
            self.derive(target, index, params)
                .unwrap_or_else(|| simulate_target_fast(target, params)),
        );
        self.cache.insert(key, Arc::clone(&run));
        run
    }

    /// The run of `target` under `params` derived from its cached entry
    /// under the `lanes = 1` sibling key, when that entry exists and the
    /// target qualifies ([`derive_from_serial`], which also rejects
    /// single-lane and non-pruning keys).
    fn derive(
        &self,
        target: &RealignmentTarget,
        index: usize,
        params: &FpgaParams,
    ) -> Option<UnitRun> {
        let sibling = TimingKey::of(&FpgaParams {
            lanes: 1,
            ..*params
        });
        let serial = self.cache.get(&(sibling, index))?;
        derive_from_serial(target, params, serial)
    }

    /// Populates the cache for every target in `targets` under `params`,
    /// sharding the datapath simulations across `threads` scoped worker
    /// threads (dynamic work-stealing distribution — target cost varies
    /// wildly with shape, so static chunking would straggle).
    ///
    /// Determinism: each [`UnitRun`] is a pure function of its target and
    /// the [`FpgaParams`] timing key, computed by the same
    /// [`simulate_target_fast`] kernel a cold [`Self::simulate`] call
    /// would run, and the workers touch disjoint targets. Results are
    /// merged into the cache in target-index order after every worker has
    /// joined, so a subsequent simulation run over a pre-warmed oracle is
    /// **bitwise identical** to a single-threaded (or entirely unwarmed)
    /// run — the system-level parity is pinned in `tests/event_parity.rs`.
    ///
    /// Already-cached entries are not recomputed, so warming is idempotent
    /// and composes with partially-warmed caches. Entries that
    /// [`Self::simulate`] would derive from a cached `lanes = 1` sibling
    /// are derived first, on the calling thread; only the rest are swept.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or a worker thread panics.
    pub fn precompute(
        &mut self,
        targets: &[RealignmentTarget],
        params: &FpgaParams,
        threads: usize,
    ) {
        assert!(threads > 0, "at least one thread required");
        let key = TimingKey::of(params);
        let mut missing = Vec::new();
        for (i, target) in targets.iter().enumerate() {
            if self.cache.contains_key(&(key, i)) {
                continue;
            }
            match self.derive(target, i, params) {
                Some(run) => {
                    self.cache.insert((key, i), Arc::new(run));
                }
                None => missing.push(i),
            }
        }
        if missing.is_empty() {
            return;
        }
        if threads == 1 || missing.len() == 1 {
            for &i in &missing {
                let run = simulate_target_fast(&targets[i], params);
                self.cache.insert((key, i), Arc::new(run));
            }
            return;
        }

        let next = AtomicUsize::new(0);
        let mut computed: Vec<(usize, UnitRun)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(missing.len()))
                .map(|_| {
                    let (next, missing) = (&next, &missing);
                    scope.spawn(move |_| {
                        let mut local = Vec::new();
                        loop {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = missing.get(slot) else {
                                break;
                            };
                            local.push((i, simulate_target_fast(&targets[i], params)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle worker panicked"))
                .collect()
        })
        .expect("oracle worker threads join");
        // Deterministic merge: insert in target-index order regardless of
        // which worker computed what.
        computed.sort_unstable_by_key(|&(i, _)| i);
        for (i, run) in computed {
            self.cache.insert((key, i), Arc::new(run));
        }
    }

    /// Number of memoized (configuration, target) entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// A new oracle holding the entries for `params` at the given global
    /// `indices`, re-keyed to local positions `0..indices.len()`.
    ///
    /// Multi-accelerator sweeps shard one workload across sub-slices whose
    /// targets keep their identity but lose their global index; a warmed
    /// pool oracle projected through `subset` serves each shard without
    /// recomputing anything. Global indices that were never memoized are
    /// simply absent from the projection (they fall back to cold
    /// computation on first use).
    pub fn subset(&self, params: &FpgaParams, indices: &[usize]) -> FunctionalOracle {
        let key = TimingKey::of(params);
        let mut cache = HashMap::with_capacity(indices.len());
        for (local, &global) in indices.iter().enumerate() {
            if let Some(run) = self.cache.get(&(key, global)) {
                cache.insert((key, local), Arc::clone(run));
            }
        }
        FunctionalOracle { cache }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::simulate_target;
    use ir_genome::{Qual, Read};

    fn target() -> RealignmentTarget {
        RealignmentTarget::builder(20)
            .reference("CCTTAGA".parse().unwrap())
            .consensus("ACCTGAA".parse().unwrap())
            .read(
                Read::new(
                    "r0",
                    "TGAA".parse().unwrap(),
                    Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
                    0,
                )
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn oracle_matches_direct_simulation() {
        let t = target();
        let mut oracle = FunctionalOracle::new();
        for params in [FpgaParams::serial(), FpgaParams::iracc()] {
            assert_eq!(
                oracle.simulate(&t, 0, &params),
                simulate_target(&t, &params)
            );
        }
        assert_eq!(oracle.len(), 2, "distinct timing keys cache separately");
    }

    #[test]
    fn timing_irrelevant_params_share_entries() {
        let t = target();
        let mut oracle = FunctionalOracle::new();
        let serial = FpgaParams::serial();
        let fewer_units = FpgaParams {
            num_units: 4,
            cmd_latency_s: 1e-3,
            ..serial
        };
        let a = oracle.simulate(&t, 0, &serial);
        let b = oracle.simulate(&t, 0, &fewer_units);
        assert_eq!(a, b);
        assert_eq!(oracle.len(), 1, "unit count and latencies don't key");
    }

    /// A small workload of distinct shapes so work-stealing actually
    /// interleaves.
    fn varied_targets() -> Vec<RealignmentTarget> {
        let reads = ["TGAA", "CCTT", "AGAC", "CTTA", "TAGA", "GACC"];
        reads
            .iter()
            .enumerate()
            .map(|(i, r)| {
                RealignmentTarget::builder(i as u64 * 10)
                    .reference("CCTTAGACCTGATTACAGGA".parse().unwrap())
                    .consensus("ACCTGAACCTGATTACAGGA".parse().unwrap())
                    .read(
                        Read::new(
                            "r",
                            r.parse().unwrap(),
                            Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
                            0,
                        )
                        .unwrap(),
                    )
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn parallel_precompute_matches_cold_simulation() {
        let targets = varied_targets();
        for params in [FpgaParams::serial(), FpgaParams::iracc()] {
            for threads in [1usize, 2, 3, 8] {
                let mut warm = FunctionalOracle::new();
                warm.precompute(&targets, &params, threads);
                assert_eq!(warm.len(), targets.len(), "{threads} threads");
                let mut cold = FunctionalOracle::new();
                for (i, t) in targets.iter().enumerate() {
                    assert_eq!(
                        warm.simulate(t, i, &params),
                        cold.simulate(t, i, &params),
                        "target {i}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn precompute_is_idempotent_and_composes_with_partial_caches() {
        let targets = varied_targets();
        let params = FpgaParams::iracc();
        let mut oracle = FunctionalOracle::new();
        // Seed a partial cache through the normal path…
        let first = oracle.simulate(&targets[2], 2, &params);
        // …then warm the rest in parallel, twice.
        oracle.precompute(&targets, &params, 4);
        oracle.precompute(&targets, &params, 4);
        assert_eq!(oracle.len(), targets.len());
        assert_eq!(oracle.simulate(&targets[2], 2, &params), first);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn precompute_zero_threads_panics() {
        FunctionalOracle::new().precompute(&[], &FpgaParams::serial(), 0);
    }

    #[test]
    fn subset_rekeys_globals_to_locals_and_skips_missing() {
        let targets = varied_targets();
        let params = FpgaParams::iracc();
        let mut pool = FunctionalOracle::new();
        pool.precompute(&targets, &params, 1);
        let indices = [4usize, 1, 5];
        let mut shard = pool.subset(&params, &indices);
        assert_eq!(shard.len(), indices.len());
        for (local, &global) in indices.iter().enumerate() {
            assert_eq!(
                shard.simulate(&targets[global], local, &params),
                pool.simulate(&targets[global], global, &params),
                "local {local} must mirror global {global}"
            );
        }
        // Indices never memoized in the pool just don't project.
        let sparse = FunctionalOracle::new().subset(&params, &[0, 1]);
        assert!(sparse.is_empty());
        // A different timing key projects nothing either.
        assert!(pool.subset(&FpgaParams::serial(), &indices).is_empty());
    }

    /// A deterministic stream of small integers for the fixtures below.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, m: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % m as u64) as usize
        }

        fn bases(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| b"ACGT"[self.below(4)]).collect()
        }
    }

    /// A target over a 160-base reference and one insertion consensus,
    /// with one read per entry of `read_lens`, each cut from the reference
    /// with three substitutions — so minima are real and serial scans
    /// prune.
    fn target_with_reads(seed: u64, read_lens: &[usize]) -> RealignmentTarget {
        let mut rng = Lcg(seed);
        let reference = rng.bases(160);
        let mut consensus = reference[..70].to_vec();
        consensus.extend_from_slice(b"GATTA");
        consensus.extend_from_slice(&reference[70..155]);
        let seq = |b: &[u8]| -> ir_genome::Sequence {
            String::from_utf8(b.to_vec()).unwrap().parse().unwrap()
        };
        let mut builder = RealignmentTarget::builder(seed * 1000)
            .reference(seq(&reference))
            .consensus(seq(&consensus));
        for &n in read_lens {
            let start = rng.below(160 - n + 1);
            let mut read = reference[start..start + n].to_vec();
            for _ in 0..3 {
                let pos = rng.below(n);
                read[pos] = b"ACGT"[rng.below(4)];
            }
            let quals: Vec<u8> = (0..n).map(|_| 10 + rng.below(40) as u8).collect();
            let read = Read::new("r", seq(&read), Qual::from_raw_scores(&quals).unwrap(), 0);
            builder = builder.read(read.unwrap());
        }
        builder.build().unwrap()
    }

    /// Targets on both sides of the 32-lane design's 96-base bound, and
    /// one that mixes both lengths.
    fn bound_targets() -> Vec<RealignmentTarget> {
        [
            &[96usize][..],
            &[97],
            &[96, 97, 40],
            &[1, 64, 96, 33],
            &[97, 150],
        ]
        .iter()
        .enumerate()
        .map(|(i, lens)| target_with_reads(i as u64 + 1, lens))
        .collect()
    }

    #[test]
    fn multi_lane_entries_derive_from_serial_up_to_the_drain_bound() {
        let (serial, iracc) = (FpgaParams::serial(), FpgaParams::iracc());
        for (i, t) in bound_targets().iter().enumerate() {
            let mut oracle = FunctionalOracle::new();
            assert!(oracle.derive(t, i, &iracc).is_none(), "no sibling yet");
            let serial_run = oracle.simulate(t, i, &serial);
            let short = t.reads().iter().all(|r| r.len() <= 96);
            assert_eq!(oracle.derive(t, i, &iracc).is_some(), short, "target {i}");
            let cold = simulate_target_fast(t, &iracc);
            assert_eq!(oracle.simulate(t, i, &iracc), cold, "target {i}");
            assert_ne!(cold.comparisons, serial_run.comparisons, "target {i}");
        }
    }

    #[test]
    fn precompute_derives_eligible_targets_on_any_thread_count() {
        let targets = bound_targets();
        let (serial, iracc) = (FpgaParams::serial(), FpgaParams::iracc());
        for threads in [1usize, 2] {
            let mut oracle = FunctionalOracle::new();
            oracle.precompute(&targets, &serial, threads);
            oracle.precompute(&targets, &iracc, threads);
            assert_eq!(oracle.len(), 2 * targets.len(), "{threads} threads");
            for (i, t) in targets.iter().enumerate() {
                for params in [serial, iracc] {
                    assert_eq!(
                        oracle.simulate(t, i, &params),
                        simulate_target_fast(t, &params),
                        "target {i}, lanes {}, {threads} threads",
                        params.lanes
                    );
                }
            }
        }
    }

    #[test]
    fn key_request_order_does_not_show() {
        let targets = bound_targets();
        let (serial, iracc) = (FpgaParams::serial(), FpgaParams::iracc());
        let mut iracc_first = FunctionalOracle::new();
        let mut serial_first = FunctionalOracle::new();
        for (i, t) in targets.iter().enumerate() {
            let cold_iracc = iracc_first.simulate(t, i, &iracc);
            let cold_serial = iracc_first.simulate(t, i, &serial);
            assert_eq!(
                serial_first.simulate(t, i, &serial),
                cold_serial,
                "target {i}"
            );
            assert_eq!(
                serial_first.simulate(t, i, &iracc),
                cold_iracc,
                "target {i}"
            );
        }
    }

    #[test]
    fn keys_that_differ_beyond_lanes_never_derive() {
        let targets = bound_targets();
        let t = &targets[0];
        let mut oracle = FunctionalOracle::new();
        oracle.simulate(t, 0, &FpgaParams::serial());
        let iracc = FpgaParams::iracc();
        for params in [
            crate::hls::hls_params(),
            FpgaParams {
                pruning: false,
                ..iracc
            },
            FpgaParams {
                compute_overhead: 1.5,
                ..iracc
            },
            FpgaParams {
                pair_overhead_cycles: 5,
                ..iracc
            },
        ] {
            assert!(oracle.derive(t, 0, &params).is_none(), "{params:?}");
            assert_eq!(
                oracle.simulate(t, 0, &params),
                simulate_target_fast(t, &params)
            );
        }
        // With its own `lanes = 1` sibling cached, a scaled key derives,
        // and the closed-form HDC cycles are scaled like swept ones.
        let scaled = FpgaParams {
            compute_overhead: 1.5,
            ..iracc
        };
        let mut oracle = FunctionalOracle::new();
        oracle.simulate(t, 0, &FpgaParams { lanes: 1, ..scaled });
        let derived = oracle.derive(t, 0, &scaled).expect("sibling cached");
        assert_eq!(derived, simulate_target_fast(t, &scaled));
    }

    #[test]
    fn mutating_a_returned_run_does_not_poison_the_cache() {
        let t = target();
        let mut oracle = FunctionalOracle::new();
        let mut first = oracle.simulate(&t, 0, &FpgaParams::serial());
        first.comparisons = 0;
        first.cycles = Default::default();
        let second = oracle.simulate(&t, 0, &FpgaParams::serial());
        assert_ne!(second.comparisons, 0);
    }
}
