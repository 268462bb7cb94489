//! Property tests of the target interchange format and the host buffer
//! layout: serialization is lossless and the output-buffer codec agrees
//! with the realigner.

use proptest::prelude::*;

use ir_system::core::IndelRealigner;
use ir_system::fpga::layout::{decode_outputs, encode_outputs, HostBuffers};
use ir_system::genome::{tio, Qual, Read, RealignmentTarget, Sequence};
use ir_system::workloads::{WorkloadConfig, WorkloadGenerator};

fn small_targets(seed: u64, count: usize) -> Vec<RealignmentTarget> {
    WorkloadGenerator::new(WorkloadConfig {
        scale: 1e-5,
        read_len: 30,
        min_consensus_len: 40,
        max_consensus_len: 200,
        seed,
        ..WorkloadConfig::default()
    })
    .targets(count, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    #[test]
    fn tio_round_trips_generated_workloads(seed in 0u64..10_000) {
        let targets = small_targets(seed, 3);
        let mut buffer = Vec::new();
        tio::write_targets(&mut buffer, &targets).expect("write to memory");
        let restored = tio::read_targets(buffer.as_slice()).expect("parse back");
        prop_assert_eq!(restored, targets);
    }

    #[test]
    fn output_codec_round_trips(seed in 0u64..10_000) {
        let targets = small_targets(seed, 2);
        let realigner = IndelRealigner::new();
        for target in &targets {
            let result = realigner.realign(target);
            let (flags, positions) = encode_outputs(result.outcomes(), target.start_pos());
            prop_assert_eq!(flags.len(), target.num_reads());
            prop_assert_eq!(positions.len(), 4 * target.num_reads());
            let decoded =
                decode_outputs(&flags, &positions, target.num_reads(), target.start_pos())
                    .expect("well-formed buffers decode");
            for (got, want) in decoded.iter().zip(result.outcomes()) {
                prop_assert_eq!(got.realigned(), want.realigned());
                prop_assert_eq!(got.new_pos(), want.new_pos());
            }
        }
    }

    #[test]
    fn host_buffers_are_faithful_images(seed in 0u64..10_000) {
        let targets = small_targets(seed, 2);
        for target in &targets {
            let buffers = HostBuffers::from_target(target);
            buffers.check_fit().expect("generated targets fit the unit");
            prop_assert_eq!(buffers.payload_bytes(), target.shape().input_bytes());
            prop_assert_eq!(target.input_bytes(), target.shape().input_bytes());
            // Spot-check every consensus and read lands at its slot.
            for (i, cons) in target.consensuses().iter().enumerate() {
                let slot = &buffers.consensus()[i * 2048..][..cons.len()];
                prop_assert_eq!(slot, cons.as_bytes());
            }
            for (j, read) in target.reads().iter().enumerate() {
                let slot = &buffers.read_bases()[j * 256..][..read.len()];
                prop_assert_eq!(slot, read.bases().as_bytes());
                let quals = &buffers.read_quals()[j * 256..][..read.len()];
                prop_assert_eq!(quals, read.quals().scores());
            }
        }
    }
}

#[test]
fn tio_handles_the_hardware_maximum_target() {
    // One maximal target: 32 consensuses × 2048 bp, 256 reads × 256 bp.
    let reference: Sequence = "ACGT".repeat(512).parse().unwrap();
    let mut builder = RealignmentTarget::builder(7).reference(reference.clone());
    for _ in 0..31 {
        builder = builder.consensus(reference.clone());
    }
    for j in 0..256 {
        let read = Read::new(
            format!("r{j}"),
            reference.slice(j, j + 256),
            Qual::uniform(40, 256).unwrap(),
            j as u64,
        )
        .unwrap();
        builder = builder.read(read);
    }
    let target = builder.build().unwrap();

    let mut buffer = Vec::new();
    tio::write_targets(&mut buffer, std::slice::from_ref(&target)).unwrap();
    let restored = tio::read_targets(buffer.as_slice()).unwrap();
    assert_eq!(restored, vec![target]);
}
