//! Property tests: the cycle-level FPGA simulator is functionally
//! bit-identical to the golden software model, for both the serial and
//! data-parallel datapaths, and pruning never changes results.

use proptest::prelude::*;

use ir_system::core::{IndelRealigner, PruningMode};
use ir_system::fpga::unit::simulate_target;
use ir_system::fpga::FpgaParams;
use ir_system::genome::{Base, Qual, Read, RealignmentTarget, Sequence};

fn base_strategy() -> impl Strategy<Value = Base> {
    prop_oneof![
        4 => Just(Base::A),
        4 => Just(Base::C),
        4 => Just(Base::G),
        4 => Just(Base::T),
        1 => Just(Base::N),
    ]
}

fn sequence_strategy(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(base_strategy(), len).prop_map(Sequence::new)
}

fn read_strategy(max_len: usize) -> impl Strategy<Value = Read> {
    (4usize..=max_len)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(base_strategy(), n),
                prop::collection::vec(0u8..=60, n),
                0u64..100,
            )
        })
        .prop_map(|(bases, quals, start)| {
            Read::new(
                "prop",
                Sequence::new(bases),
                Qual::from_raw_scores(&quals).expect("scores ≤ 60"),
                start,
            )
            .expect("non-empty read with matching quals")
        })
}

prop_compose! {
    fn target_strategy()(
        reference in sequence_strategy(16..=64),
        alts in prop::collection::vec(sequence_strategy(16..=64), 0..4),
        reads in prop::collection::vec(read_strategy(12), 1..6),
        start in 0u64..1_000_000,
    ) -> RealignmentTarget {
        RealignmentTarget::builder(start)
            .reference(reference)
            .consensuses(alts)
            .reads(reads)
            .build()
            .expect("generated dimensions respect the limits")
    }
}

proptest! {
    // Local default trimmed to keep tier-1 wall-clock flat; CI's
    // parity-soak job soaks this suite in release at
    // IR_PROPTEST_CASES=256 (see README, "Test suite knobs").
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn serial_simulator_matches_golden(target in target_strategy()) {
        let golden = IndelRealigner::new().realign(&target);
        let run = simulate_target(&target, &FpgaParams::serial());
        prop_assert_eq!(&run.grid, golden.grid());
        prop_assert_eq!(run.scores.as_slice(), golden.scores());
        prop_assert_eq!(run.best, golden.best_consensus());
        prop_assert_eq!(run.outcomes.as_slice(), golden.outcomes());
    }

    #[test]
    fn data_parallel_simulator_matches_golden(target in target_strategy()) {
        let golden = IndelRealigner::new().realign(&target);
        let run = simulate_target(&target, &FpgaParams::iracc());
        prop_assert_eq!(&run.grid, golden.grid());
        prop_assert_eq!(run.best, golden.best_consensus());
        prop_assert_eq!(run.outcomes.as_slice(), golden.outcomes());
    }

    #[test]
    fn pruning_is_exact(target in target_strategy()) {
        let pruned = IndelRealigner::with_pruning(PruningMode::On).realign(&target);
        let naive = IndelRealigner::with_pruning(PruningMode::Off).realign(&target);
        prop_assert_eq!(pruned.grid(), naive.grid());
        prop_assert_eq!(pruned.scores(), naive.scores());
        prop_assert_eq!(pruned.best_consensus(), naive.best_consensus());
        prop_assert_eq!(pruned.outcomes(), naive.outcomes());
        // Pruning only removes work, never adds it.
        prop_assert!(pruned.ops().base_comparisons <= naive.ops().base_comparisons);
        prop_assert_eq!(pruned.ops().naive_comparisons(), naive.ops().base_comparisons);
    }

    #[test]
    fn data_parallel_is_never_slower(target in target_strategy()) {
        let serial = simulate_target(&target, &FpgaParams::serial());
        let parallel = simulate_target(&target, &FpgaParams::iracc());
        // The 32-lane calculator can execute *more comparisons* (block
        // granularity + prune latency) but never more cycles.
        prop_assert!(parallel.cycles.hdc <= serial.cycles.hdc);
        prop_assert!(parallel.comparisons >= serial.comparisons);
    }

    #[test]
    fn realignment_offsets_are_within_the_target(target in target_strategy()) {
        let result = IndelRealigner::new().realign(&target);
        let best = result.best_consensus();
        let cons_len = target.consensus(best).len();
        for (j, outcome) in result.outcomes().iter().enumerate() {
            if let Some(offset) = outcome.new_offset() {
                prop_assert!(offset + target.read(j).len() <= cons_len);
                prop_assert_eq!(
                    outcome.new_pos().expect("realigned"),
                    offset as u64 + target.start_pos()
                );
            }
        }
    }

    #[test]
    fn steppable_fsm_matches_closed_form_model(target in target_strategy()) {
        use ir_system::fpga::fsm::HdcFsm;
        use ir_system::fpga::hdc::{run_pair, HdcConfig};
        for cfg in [HdcConfig::serial(), HdcConfig::data_parallel()] {
            for i in 0..target.num_consensuses() {
                for j in 0..target.num_reads() {
                    let cons = target.consensus(i);
                    let read = target.read(j);
                    let expected = run_pair(cons, read.bases(), read.quals(), cfg);
                    let mut fsm = HdcFsm::new(cons, read.bases(), read.quals(), cfg);
                    while fsm.step() {}
                    prop_assert_eq!(fsm.result(), Some(expected.min));
                    prop_assert_eq!(fsm.cycles(), expected.cycles);
                    prop_assert_eq!(fsm.comparisons(), expected.comparisons);
                }
            }
        }
    }

    #[test]
    fn naive_work_matches_shape_formula(target in target_strategy()) {
        let naive = IndelRealigner::with_pruning(PruningMode::Off).realign(&target);
        prop_assert_eq!(
            naive.ops().base_comparisons,
            target.shape().worst_case_comparisons()
        );
    }
}
