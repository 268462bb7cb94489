//! Seeded adversarial generation and mutation of [`FuzzInput`]s.
//!
//! The generator is menu-driven rather than uniformly random: each draw
//! assembles a case from pathological building blocks the happy-path test
//! suites rarely produce — single-base reads, reads exactly as long as
//! their consensus (one alignment offset), all-`N` sequences, saturated
//! and zero quality strings, max-depth pileups, boundary backend shapes,
//! extreme fault rates and bursty arrival patterns. Everything is driven
//! by one [`StdRng`], so a `(seed, iteration)` pair always reproduces the
//! same case.
//!
//! Generated work is bounded: a case's total worst-case comparison count
//! is capped, so even "maximum pileup" draws stay inside the time budget
//! of a CI smoke run.

use ir_fpga::{FaultRates, Scheduling};
use ir_genome::{Base, Qual, Read, RealignmentTarget, Sequence, MAX_PHRED_SCORE};
use ir_workloads::{ShapeFamily, WorkloadConfig};
use rand::rngs::StdRng;
use rand::Rng;

use crate::input::{FaultSpec, FleetSpec, FuzzInput, ParamsSpec, ServeSpec};

/// Cap on a case's summed worst-case comparisons, keeping single-case
/// execution in the low milliseconds.
const MAX_CASE_COMPARISONS: u64 = 2_000_000;

/// Longest consensus the generator emits (well under the 2048 hardware
/// bound — length extremes cost time without adding new control flow).
const MAX_CONS_LEN: usize = 192;

const SCHEDULINGS: [Scheduling; 4] = [
    Scheduling::Synchronous,
    Scheduling::SynchronousUnsorted,
    Scheduling::SynchronousByWorstCase,
    Scheduling::Asynchronous,
];

fn random_base(rng: &mut StdRng) -> Base {
    match rng.random_range(0..5u32) {
        0 => Base::A,
        1 => Base::C,
        2 => Base::G,
        3 => Base::T,
        _ => Base::N,
    }
}

fn sequence(rng: &mut StdRng, len: usize) -> Sequence {
    // Shape menu: random, all-N, homopolymer, alternating two-base.
    let bases = match rng.random_range(0..4u32) {
        0 => (0..len).map(|_| random_base(rng)).collect(),
        1 => vec![Base::N; len],
        2 => vec![random_base(rng); len],
        _ => {
            let (a, b) = (random_base(rng), random_base(rng));
            (0..len).map(|i| if i % 2 == 0 { a } else { b }).collect()
        }
    };
    Sequence::new(bases)
}

fn quals(rng: &mut StdRng, len: usize) -> Qual {
    // Degenerate quality menu: all-zero, saturated, random, ramp.
    let scores: Vec<u8> = match rng.random_range(0..4u32) {
        0 => vec![0; len],
        1 => vec![MAX_PHRED_SCORE; len],
        2 => (0..len)
            .map(|_| rng.random_range(0..=MAX_PHRED_SCORE as u32) as u8)
            .collect(),
        _ => (0..len)
            .map(|i| (i % (MAX_PHRED_SCORE as usize + 1)) as u8)
            .collect(),
    };
    Qual::from_raw_scores(&scores).expect("scores are in range by construction")
}

/// One adversarial target. `max_reads` caps pileup depth so the overall
/// case budget holds.
fn target(rng: &mut StdRng, max_reads: usize) -> RealignmentTarget {
    let cons_len = match rng.random_range(0..4u32) {
        0 => 1,
        1 => rng.random_range(2..16),
        2 => rng.random_range(16..64),
        _ => rng.random_range(64..=MAX_CONS_LEN),
    };
    let num_alts = rng.random_range(0..4usize);
    let reference = sequence(rng, cons_len);
    let alts: Vec<Sequence> = (0..num_alts)
        .map(|_| {
            // Alternative consensuses may be longer than the reference but
            // never shorter than the longest read we will emit.
            let len = rng.random_range(cons_len..=(cons_len + 8).min(MAX_CONS_LEN));
            sequence(rng, len)
        })
        .collect();
    let num_reads = match rng.random_range(0..3u32) {
        0 => 1,
        1 => rng.random_range(2..8usize).min(max_reads.max(1)),
        _ => max_reads.max(1), // max-depth pileup
    };
    let reads: Vec<Read> = (0..num_reads)
        .map(|i| {
            // Read-length menu: single base, exactly consensus-length (one
            // alignment offset), or anywhere in between.
            let len = match rng.random_range(0..3u32) {
                0 => 1,
                1 => cons_len,
                _ => rng.random_range(1..=cons_len),
            };
            let offset = rng.random_range(0..cons_len as u64);
            Read::new(format!("f{i}"), sequence(rng, len), quals(rng, len), offset)
                .expect("generated reads are non-empty")
        })
        .collect();
    RealignmentTarget::builder(rng.random_range(0..1_000_000))
        .reference(reference)
        .consensuses(alts)
        .reads(reads)
        .build()
        .expect("generated shapes satisfy hardware limits")
}

fn params(rng: &mut StdRng) -> ParamsSpec {
    let mut spec = if rng.random_bool(0.5) {
        ParamsSpec::iracc()
    } else {
        ParamsSpec::serial()
    };
    // Boundary shapes: a single unit, a couple of units, or the preset's
    // full sea; lanes crossed against the preset; pruning toggled.
    spec.num_units = match rng.random_range(0..3u32) {
        0 => 1,
        1 => rng.random_range(2..8),
        _ => spec.num_units,
    };
    if rng.random_bool(0.3) {
        spec.lanes = if spec.lanes == 1 { 32 } else { 1 };
    }
    if rng.random_bool(0.3) {
        spec.pruning = !spec.pruning;
    }
    if rng.random_bool(0.2) {
        spec.pair_overhead_cycles = rng.random_range(0..5);
    }
    spec
}

fn fault(rng: &mut StdRng) -> Option<FaultSpec> {
    if rng.random_bool(0.5) {
        return None;
    }
    let rates = match rng.random_range(0..4u32) {
        // Extreme: every event at one site fails.
        0 => {
            let mut r = FaultRates::none();
            let p = 1.0;
            match rng.random_range(0..6u32) {
                0 => r.dma_timeout = p,
                1 => r.dma_truncation = p,
                2 => r.response_drop = p,
                3 => r.response_duplicate = p,
                4 => r.unit_hang = p,
                _ => r.output_bit_flip = p,
            }
            r
        }
        // Correlated burst: everything failing hard at once.
        1 => FaultRates::uniform(0.5),
        // The study default.
        2 => FaultRates::default_rates(),
        // Mild uniform pressure.
        _ => FaultRates::uniform(rng.random_range(0.01..0.2)),
    };
    Some(FaultSpec {
        seed: rng.random::<u64>(),
        rates,
    })
}

fn serve(rng: &mut StdRng, requests: usize) -> Option<ServeSpec> {
    if rng.random_bool(0.5) {
        return None;
    }
    let arrival_ns: Vec<u64> = match rng.random_range(0..3u32) {
        // Thundering herd: everything at t = 0.
        0 => vec![0; requests],
        // Uniform spacing.
        1 => {
            let gap = rng.random_range(1..50_000u64);
            (0..requests as u64).map(|i| i * gap).collect()
        }
        // Sorted random jitter.
        _ => {
            let mut t: Vec<u64> = (0..requests)
                .map(|_| rng.random_range(0..2_000_000u64))
                .collect();
            t.sort_unstable();
            t
        }
    };
    Some(ServeSpec {
        shards: rng.random_range(1..4),
        max_batch: [1, 2, 32][rng.random_range(0..3usize)],
        // Watermark 1 forces heavy admission-control rejection.
        admission_watermark: [1, 4, 256][rng.random_range(0..3usize)],
        flush_deadline_ns: [1, 10_000, 500_000][rng.random_range(0..3usize)],
        arrival_ns,
    })
}

/// Fleet topologies only make sense riding on a serve scenario; callers
/// pass `None` for serve-less cases so the RNG draw count stays aligned
/// with what the encoding can express.
fn fleet(rng: &mut StdRng, has_serve: bool) -> Option<FleetSpec> {
    if !has_serve || rng.random_bool(0.6) {
        return None;
    }
    Some(FleetSpec {
        nodes: rng.random_range(1..5),
        vnodes: [1, 4, 16][rng.random_range(0..3usize)],
        // Zero routes the multi-node run through inline ingest, the path
        // the single pool takes; positive hops exercise the
        // delayed-delivery reroute path.
        hop_ns: [0, 500, 20_000][rng.random_range(0..3usize)],
    })
}

/// A scaled-down realistic generator config for `family`: the family's
/// own error/coverage/consensus statistics, but with the dimensions
/// shrunk far below the shape envelope so a case stays inside the
/// comparison budget (a full-size long-read target alone would cost ~1e9
/// comparisons).
fn mini_config(family: ShapeFamily) -> WorkloadConfig {
    let base = family.profile().config(1e-5);
    match family {
        ShapeFamily::ShortReadGermline => WorkloadConfig {
            read_len: 24,
            min_consensus_len: 32,
            max_consensus_len: 96,
            min_reads: 2,
            max_reads: 8,
            ..base
        },
        ShapeFamily::LongRead => WorkloadConfig {
            read_len: 48,
            min_consensus_len: 64,
            max_consensus_len: 160,
            min_reads: 2,
            max_reads: 4,
            ..base
        },
        ShapeFamily::DeepPanel => WorkloadConfig {
            read_len: 12,
            min_consensus_len: 24,
            max_consensus_len: 64,
            min_reads: 8,
            max_reads: 24,
            ..base
        },
        ShapeFamily::Metagenomic => WorkloadConfig {
            read_len: 12,
            min_consensus_len: 16,
            max_consensus_len: 64,
            min_reads: 2,
            max_reads: 12,
            ..base
        },
    }
}

/// Trims `targets` from the back until the case fits the comparison
/// budget (always keeps at least one target).
fn enforce_budget(targets: &mut Vec<RealignmentTarget>) {
    let mut total = 0u64;
    let mut keep = 0usize;
    for t in targets.iter() {
        total = total.saturating_add(t.shape().worst_case_comparisons());
        if keep > 0 && total > MAX_CASE_COMPARISONS {
            break;
        }
        keep += 1;
    }
    targets.truncate(keep.max(1));
}

/// Draws one fresh adversarial case.
pub fn generate(rng: &mut StdRng) -> FuzzInput {
    let mut family = None;
    let mut targets: Vec<RealignmentTarget> = if rng.random_bool(0.15) {
        // Occasionally a realistic mini-workload, as a sanity anchor —
        // drawn from a uniformly chosen shape family so the serve-layer
        // family routing sees all four regimes.
        let f = ShapeFamily::ALL[rng.random_range(0..ShapeFamily::ALL.len())];
        family = Some(f);
        ir_workloads::WorkloadGenerator::new(mini_config(f))
            .targets(rng.random_range(1..4), rng.random::<u64>())
    } else {
        let n = rng.random_range(1..5usize);
        (0..n).map(|_| target(rng, 24)).collect()
    };
    enforce_budget(&mut targets);
    let requests = targets.len();
    let fault = fault(rng);
    let serve = serve(rng, requests);
    let fleet = fleet(rng, serve.is_some());
    FuzzInput {
        params: params(rng),
        scheduling: SCHEDULINGS[rng.random_range(0..SCHEDULINGS.len())],
        prune_latency_blocks: [0, 1, 2, 5][rng.random_range(0..4usize)],
        family,
        fault,
        serve,
        fleet,
        targets,
    }
}

/// Mutates `input` into a neighbouring case: one structural change per
/// call, always yielding a valid executable input.
pub fn mutate(input: &FuzzInput, rng: &mut StdRng) -> FuzzInput {
    let mut out = input.clone();
    match rng.random_range(0..10u32) {
        0 => out.params = params(rng),
        1 => out.scheduling = SCHEDULINGS[rng.random_range(0..SCHEDULINGS.len())],
        2 => out.prune_latency_blocks = [0, 1, 2, 5][rng.random_range(0..4usize)],
        3 => out.fault = fault(rng),
        4 => {
            out.serve = serve(rng, out.targets.len());
            if out.serve.is_none() {
                out.fleet = None; // topology cannot outlive its traffic
            }
        }
        9 => out.fleet = fleet(rng, out.serve.is_some()),
        8 => {
            // Re-tag the family the serve router sees (targets are
            // unchanged: routing is by tag, not by shape inspection).
            out.family = if rng.random_bool(0.5) {
                Some(ShapeFamily::ALL[rng.random_range(0..ShapeFamily::ALL.len())])
            } else {
                None
            };
        }
        5 => {
            // Duplicate one target (pileup pressure on the schedulers).
            let i = rng.random_range(0..out.targets.len());
            let t = out.targets[i].clone();
            out.targets.push(t);
            enforce_budget(&mut out.targets);
        }
        6 => {
            if out.targets.len() > 1 {
                let i = rng.random_range(0..out.targets.len());
                out.targets.remove(i);
            } else {
                out.targets[0] = target(rng, 24);
            }
        }
        _ => {
            let i = rng.random_range(0..out.targets.len());
            out.targets[i] = target(rng, 24);
            enforce_budget(&mut out.targets);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generation_is_deterministic() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20)
                .map(|_| generate(&mut rng).encode())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn generated_cases_roundtrip_and_fit_budget() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let input = generate(&mut rng);
            assert!(!input.targets.is_empty());
            let total: u64 = input
                .targets
                .iter()
                .map(|t| t.shape().worst_case_comparisons())
                .sum();
            // One oversized pathological target may exceed the cap alone;
            // multi-target cases must respect it.
            assert!(
                input.targets.len() == 1 || total <= MAX_CASE_COMPARISONS,
                "case blew the budget: {total}"
            );
            let back = FuzzInput::decode(&input.encode()).expect("generated cases encode");
            assert_eq!(back.targets, input.targets);
        }
    }

    #[test]
    fn mutation_is_deterministic_and_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = generate(&mut rng);
        let mutate_all = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20)
                .map(|_| mutate(&base, &mut rng).encode())
                .collect::<Vec<_>>()
        };
        assert_eq!(mutate_all(5), mutate_all(5));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let m = mutate(&base, &mut rng);
            assert!(!m.targets.is_empty());
            FuzzInput::decode(&m.encode()).expect("mutants stay decodable");
        }
    }
}
