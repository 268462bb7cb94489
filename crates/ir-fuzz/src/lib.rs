//! Differential greybox fuzzing for the realignment stack.
//!
//! The repository carries several pairs of independently implemented
//! backends that must agree bitwise: the scalar and SWAR WHD kernels, the
//! batched serving layer and the direct accelerator path, telemetry-on
//! and telemetry-off runs, cold and oracle-backed runs. The proptest suites sample the friendly middle of the input
//! space; this crate hunts the edges.
//!
//! The loop ([`fuzz`]) is a classic greybox cycle, fully deterministic by
//! construction:
//!
//! 1. **Generate or mutate** ([`generate`](mod@generate)) an adversarial
//!    [`FuzzInput`] from a seeded RNG — pathological target shapes,
//!    boundary backend parameters, extreme fault rates, bursty arrival
//!    patterns.
//! 2. **Execute** ([`exec::execute`]) the case through every backend pair
//!    and invariant check; divergences come back as values, panics are
//!    caught and tagged.
//! 3. **Novelty feedback**: each outcome's FNV-1a fingerprint feeds a
//!    seen-set; inputs with novel fingerprints join the mutation pool.
//! 4. **Minimize** ([`minimize::minimize_with`]) any divergence down to a
//!    small reproducer and **persist** it ([`corpus`]) under
//!    `fuzz/corpus/discovered/`, where `tests/fuzz_replay.rs` replays it
//!    forever after as a regression test.
//!
//! Determinism contract: [`fuzz`] with equal [`FuzzConfig`]s produces
//! byte-identical [`FuzzReport`]s (pinned by a unit test and the CI
//! `fuzz-smoke` job, which diffs two same-seed runs). The loop reads no
//! clocks, no thread scheduling and no unordered containers; `IR_THREADS`
//! never reaches it — the serve stage pins its own thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod corpus;
pub mod exec;
pub mod generate;
pub mod input;
pub mod minimize;

pub use exec::{execute, Mismatch, Outcome};
pub use generate::{generate, mutate};
pub use input::{FaultSpec, FleetSpec, FuzzInput, ParamsPreset, ParamsSpec, ServeSpec};
pub use minimize::minimize_with;

/// FNV-1a 64-bit: the fingerprint hash. `std`'s default hasher is
/// randomly keyed per process, which would destroy replay determinism —
/// this one is fixed for all time.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a string into the digest.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Upper bound on the mutation pool; novel inputs beyond it replace a
/// seeded-random slot so the pool stays fresh without growing unboundedly.
const MAX_POOL: usize = 256;

/// Default iteration count, overridable via the `IR_FUZZ_ITERS`
/// environment variable (the same pattern as `IR_PROPTEST_CASES`).
pub const DEFAULT_ITERS: u64 = 32;

/// Reads `IR_FUZZ_ITERS`, falling back to `default` when unset or
/// unparsable.
pub fn iters_from_env(default: u64) -> u64 {
    std::env::var("IR_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Everything that determines a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master RNG seed.
    pub seed: u64,
    /// Iterations (generated or mutated cases) to execute.
    pub iters: u64,
    /// Corpus root (holding `seeds/` and `discovered/`); `None` runs
    /// fully in memory.
    pub corpus_dir: Option<PathBuf>,
    /// Predicate budget per minimization.
    pub minimize_budget: usize,
}

impl FuzzConfig {
    /// A config with the given seed and iteration count, no corpus.
    pub fn in_memory(seed: u64, iters: u64) -> Self {
        FuzzConfig {
            seed,
            iters,
            corpus_dir: None,
            minimize_budget: 200,
        }
    }
}

/// One unique divergence the run found.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Deduplication signature (see [`Mismatch::signature`]).
    pub signature: String,
    /// Detail string of the first observation.
    pub detail: String,
    /// The minimized reproducer.
    pub minimized: FuzzInput,
    /// Where it was persisted, when a corpus directory was configured and
    /// no case for this signature existed yet.
    pub saved_to: Option<PathBuf>,
}

/// What a fuzz run did.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases executed.
    pub iters: u64,
    /// Cases whose fingerprint was novel (joined the mutation pool).
    pub novel: u64,
    /// Unique outcome fingerprints observed.
    pub fingerprints: BTreeSet<u64>,
    /// Unique divergences, in discovery order.
    pub discoveries: Vec<Discovery>,
}

impl FuzzReport {
    /// Whether every executed case was divergence-free.
    pub fn is_clean(&self) -> bool {
        self.discoveries.is_empty()
    }
}

/// Runs the fuzz loop. Deterministic: equal configs (and equal corpus
/// contents) produce byte-identical reports.
///
/// # Errors
///
/// Corpus I/O failures (loading `seeds/`/`discovered/`, persisting new
/// discoveries). Execution itself never errors — divergences and panics
/// are data.
pub fn fuzz(config: &FuzzConfig) -> io::Result<FuzzReport> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut pool: Vec<FuzzInput> = match &config.corpus_dir {
        Some(root) => corpus::load_corpus(root)?
            .into_iter()
            .map(|(_, input)| input)
            .collect(),
        None => Vec::new(),
    };
    let mut fingerprints = BTreeSet::new();
    let mut seen_signatures = BTreeSet::new();
    let mut discoveries = Vec::new();
    let mut novel = 0u64;

    for _ in 0..config.iters {
        let input = if !pool.is_empty() && rng.random_bool(0.5) {
            let idx = rng.random_range(0..pool.len());
            generate::mutate(&pool[idx], &mut rng)
        } else {
            generate::generate(&mut rng)
        };
        let outcome = exec::execute(&input);

        for mismatch in &outcome.mismatches {
            if !seen_signatures.insert(mismatch.signature.clone()) {
                continue;
            }
            let signature = mismatch.signature.clone();
            let minimized = minimize::minimize_with(
                &input,
                |candidate| {
                    exec::execute(candidate)
                        .mismatches
                        .iter()
                        .any(|m| m.signature == signature)
                },
                config.minimize_budget,
            );
            let saved_to = match &config.corpus_dir {
                Some(root) => corpus::save_discovered(root, &signature, &minimized)?,
                None => None,
            };
            discoveries.push(Discovery {
                signature,
                detail: mismatch.detail.clone(),
                minimized,
                saved_to,
            });
        }

        if fingerprints.insert(outcome.fingerprint) {
            novel += 1;
            if pool.len() < MAX_POOL {
                pool.push(input);
            } else {
                let slot = rng.random_range(0..pool.len());
                pool[slot] = input;
            }
        }
    }

    Ok(FuzzReport {
        iters: config.iters,
        novel,
        fingerprints,
        discoveries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // The empty digest is the FNV-1a offset basis — pinned, because
        // changing the hash silently re-keys every corpus filename and
        // novelty set.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.str("ir-fuzz");
        h.u64(42);
        let mut again = Fnv::new();
        again.str("ir-fuzz");
        again.u64(42);
        assert_eq!(h.finish(), again.finish());
        let mut other = Fnv::new();
        other.str("ir-fuzz");
        other.u64(43);
        assert_ne!(h.finish(), other.finish());
    }

    #[test]
    fn fuzz_runs_are_deterministic() {
        let iters = iters_from_env(6);
        let run = || fuzz(&FuzzConfig::in_memory(1234, iters)).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.novel, b.novel);
        assert_eq!(a.fingerprints, b.fingerprints);
        assert_eq!(a.discoveries.len(), b.discoveries.len());
        for (x, y) in a.discoveries.iter().zip(&b.discoveries) {
            assert_eq!(x.signature, y.signature);
            assert_eq!(x.minimized.encode(), y.minimized.encode());
        }
    }

    #[test]
    fn healthy_stack_fuzzes_clean() {
        let report = fuzz(&FuzzConfig::in_memory(77, iters_from_env(6))).unwrap();
        assert!(
            report.is_clean(),
            "backends diverged: {:?}",
            report
                .discoveries
                .iter()
                .map(|d| (&d.signature, &d.detail))
                .collect::<Vec<_>>()
        );
        assert!(report.novel > 0, "fingerprints feed the pool");
    }

    #[test]
    fn env_iters_fall_back_to_default() {
        // The variable is unset in the test environment unless CI sets it;
        // either way the parse path must not panic.
        let _ = iters_from_env(DEFAULT_ITERS);
    }
}
