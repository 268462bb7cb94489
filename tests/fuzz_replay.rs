//! Replays the checked-in fuzz corpus as a regression suite.
//!
//! Every case under `fuzz/corpus/seeds/` and `fuzz/corpus/discovered/`
//! runs through the full differential executor. Seeds are expected to be
//! divergence-free; a discovered case is a minimized reproducer of a bug
//! that has since been fixed, so it must be divergence-free too — if a
//! regression resurrects the divergence, this test names the exact case
//! file and signature.

use ir_system::fuzz::corpus::{load_dir, DISCOVERED_DIR, SEEDS_DIR};
use ir_system::fuzz::{execute, FuzzInput};
use std::path::Path;

fn corpus_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus")
}

#[test]
fn seed_corpus_is_present() {
    let seeds = load_dir(&corpus_root().join(SEEDS_DIR)).expect("seeds load");
    assert!(
        seeds.len() >= 5,
        "expected at least 5 checked-in seed cases, found {}",
        seeds.len()
    );
}

#[test]
fn corpus_encoding_roundtrips() {
    for sub in [SEEDS_DIR, DISCOVERED_DIR] {
        for (name, input) in load_dir(&corpus_root().join(sub)).expect("corpus load") {
            let reencoded = input.encode();
            let redecoded = FuzzInput::decode(&reencoded)
                .unwrap_or_else(|e| panic!("{sub}/{name}: re-decode failed: {e}"));
            assert_eq!(
                redecoded.encode(),
                reencoded,
                "{sub}/{name}: encode/decode is not a fixpoint"
            );
        }
    }
}

#[test]
fn corpus_replays_divergence_free() {
    let mut replayed = 0usize;
    for sub in [SEEDS_DIR, DISCOVERED_DIR] {
        for (name, input) in load_dir(&corpus_root().join(sub)).expect("corpus load") {
            let outcome = execute(&input);
            assert!(
                outcome.is_clean(),
                "{sub}/{name} diverged: {:?}",
                outcome
                    .mismatches
                    .iter()
                    .map(|m| (&m.signature, &m.detail))
                    .collect::<Vec<_>>()
            );
            replayed += 1;
        }
    }
    assert!(replayed >= 5, "replayed only {replayed} cases");
}

#[test]
fn corpus_replay_is_deterministic() {
    for (name, input) in load_dir(&corpus_root().join(SEEDS_DIR)).expect("seeds load") {
        let a = execute(&input);
        let b = execute(&input);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{name}: outcome fingerprint varies between identical replays"
        );
    }
}

/// `execute(..).fingerprint` of every seed case, which hashes each
/// backend's outcome. The values are the same under every `IR_KERNEL`
/// kind, so a change that moves one changed what some backend computes
/// on that case.
const SEED_FINGERPRINTS: [(&str, u64); 7] = [
    ("seed-00-kernel-only.case", 0x8e65c0ef981ce076),
    ("seed-01-fault.case", 0xcdaf745a63812f64),
    ("seed-02-serve.case", 0xd460c1bb0dcf2efc),
    ("seed-03-serve-fault.case", 0x6a19a8c5ef3b7778),
    ("seed-04-multi-target.case", 0xb5492731486eb57a),
    ("seed-05-fleet.case", 0xa5f6bb992c06a43a),
    ("seed-06-fleet-fault.case", 0x135e0adc4848efb2),
];

#[test]
fn seed_fingerprints_match_the_golden_values() {
    let render = |cases: &[(String, u64)]| -> String {
        cases
            .iter()
            .map(|(name, fp)| format!("    (\"{name}\", {fp:#018x}),\n"))
            .collect()
    };
    let actual: Vec<(String, u64)> = load_dir(&corpus_root().join(SEEDS_DIR))
        .expect("seeds load")
        .into_iter()
        .map(|(name, input)| (name, execute(&input).fingerprint))
        .collect();
    let golden: Vec<(String, u64)> = SEED_FINGERPRINTS
        .iter()
        .map(|&(name, fp)| (name.to_string(), fp))
        .collect();
    assert!(
        actual == golden,
        "seed fingerprints moved; replayed:\n{}",
        render(&actual)
    );
}
