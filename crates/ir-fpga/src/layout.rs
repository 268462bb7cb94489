//! Host-side memory layout: the byte images the control program builds
//! and the output buffers it decodes.
//!
//! "On the host, the genomic data inputs are organized in consecutive
//! malloc'ed memory arrays of one byte per base or per quality score for
//! the three inputs" (paper §III-B), and on the FPGA side "the input
//! buffers for the consensuses and the reads are block-indexed and
//! byte-selected" (§III-A): consensus *i* lives at slot `i × 2048`, read
//! *j* at slot `j × 256`, so the datapath never shifts by large random
//! amounts. This module builds exactly those images and decodes the two
//! output buffers (one realign-flag byte and one little-endian 4-byte
//! position per read) back into [`ReadOutcome`]s.

use ir_core::ReadOutcome;
use ir_genome::RealignmentTarget;

use crate::shape::BufferGeometry;
use crate::FpgaError;

/// Slot stride of the consensus buffer in bytes (hardware geometry).
pub const CONSENSUS_SLOT_BYTES: usize = BufferGeometry::HARDWARE.consensus_slot_bytes;
/// Slot stride of the read-base and quality buffers in bytes (hardware
/// geometry).
pub const READ_SLOT_BYTES: usize = BufferGeometry::HARDWARE.read_slot_bytes;

/// The three input-buffer images for one target, slot-aligned exactly as
/// the unit's block RAMs store them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostBuffers {
    consensus: Vec<u8>,
    read_bases: Vec<u8>,
    read_quals: Vec<u8>,
    payload_bytes: u64,
    geometry: BufferGeometry,
}

impl HostBuffers {
    /// Builds the slot-aligned buffer images for `target` against the
    /// deployed hardware geometry. Unused slot tails are zero-filled (the
    /// hardware never reads past the programmed lengths).
    pub fn from_target(target: &RealignmentTarget) -> Self {
        Self::from_target_with(target, &BufferGeometry::HARDWARE)
    }

    /// [`HostBuffers::from_target`] against an arbitrary per-shape unit
    /// geometry: slot strides come from `geometry`, so a long-read unit
    /// lays out 10 KiB consensus slots where the hardware unit uses 2 KiB.
    pub fn from_target_with(target: &RealignmentTarget, geometry: &BufferGeometry) -> Self {
        let cons_slot = geometry.consensus_slot_bytes;
        let read_slot = geometry.read_slot_bytes;
        let mut consensus = vec![0u8; target.num_consensuses() * cons_slot];
        for (i, cons) in target.consensuses().iter().enumerate() {
            let slot = &mut consensus[i * cons_slot..][..cons.len()];
            slot.copy_from_slice(&cons.as_bytes());
        }
        let mut read_bases = vec![0u8; target.num_reads() * read_slot];
        let mut read_quals = vec![0u8; target.num_reads() * read_slot];
        for (j, read) in target.reads().iter().enumerate() {
            read_bases[j * read_slot..][..read.len()].copy_from_slice(&read.bases().as_bytes());
            read_quals[j * read_slot..][..read.len()].copy_from_slice(read.quals().scores());
        }
        HostBuffers {
            consensus,
            read_bases,
            read_quals,
            payload_bytes: target.input_bytes(),
            geometry: *geometry,
        }
    }

    /// The slot-aligned consensus image (what input buffer #1 holds).
    pub fn consensus(&self) -> &[u8] {
        &self.consensus
    }

    /// The slot-aligned read-base image (input buffer #2).
    pub fn read_bases(&self) -> &[u8] {
        &self.read_bases
    }

    /// The slot-aligned quality image (input buffer #3).
    pub fn read_quals(&self) -> &[u8] {
        &self.read_quals
    }

    /// Actual content bytes the DMA engine moves (the packed host arrays,
    /// before slot alignment) — the quantity the transfer model charges.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Total slot-aligned footprint in FPGA DRAM / block RAM.
    pub fn footprint_bytes(&self) -> usize {
        self.consensus.len() + self.read_bases.len() + self.read_quals.len()
    }

    /// The unit buffer geometry these images were laid out against.
    pub fn geometry(&self) -> &BufferGeometry {
        &self.geometry
    }

    /// Checks that the images fit the physical buffers of the unit
    /// geometry they were built for (the hardware geometry via
    /// [`HostBuffers::from_target`], whose capacities equal
    /// [`crate::isa::BufferIndex::capacity_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BufferOverflow`] naming the offending buffer.
    pub fn check_fit(&self) -> Result<(), FpgaError> {
        let checks = [
            (
                "consensus",
                self.consensus.len(),
                self.geometry.consensus_capacity_bytes(),
            ),
            (
                "read bases",
                self.read_bases.len(),
                self.geometry.read_capacity_bytes(),
            ),
            (
                "read quality scores",
                self.read_quals.len(),
                self.geometry.read_capacity_bytes(),
            ),
        ];
        for (buffer, required, capacity) in checks {
            if required > capacity {
                return Err(FpgaError::BufferOverflow {
                    buffer,
                    required,
                    capacity,
                });
            }
        }
        Ok(())
    }
}

/// Encodes per-read outcomes into the two output-buffer images: one flag
/// byte per read (output buffer #1) and one little-endian `u32` position
/// per read (output buffer #2).
///
/// Non-realigned reads keep a zero flag; their position word carries the
/// (ignored) candidate position the selector computed, as the hardware
/// writes both buffers unconditionally.
pub fn encode_outputs(outcomes: &[ReadOutcome], target_start_pos: u64) -> (Vec<u8>, Vec<u8>) {
    let mut flags = Vec::with_capacity(outcomes.len());
    let mut positions = Vec::with_capacity(outcomes.len() * 4);
    for outcome in outcomes {
        flags.push(u8::from(outcome.realigned()));
        let pos = outcome.new_pos().unwrap_or(target_start_pos);
        positions.extend_from_slice(&(pos as u32).to_le_bytes());
    }
    (flags, positions)
}

/// Decodes the two output-buffer images back into outcomes.
///
/// This is the hot read-back path, so it never panics: every malformed
/// input (short buffer, bad flag byte, ragged position words — e.g. a
/// truncated DMA read-back or an injected bit flip) is reported as a
/// typed error the driver's retry logic can act on.
///
/// # Errors
///
/// Returns [`FpgaError::CorruptOutput`] if the buffer sizes disagree with
/// `num_reads` or a flag byte is not 0/1.
pub fn decode_outputs(
    flags: &[u8],
    positions: &[u8],
    num_reads: usize,
    target_start_pos: u64,
) -> Result<Vec<ReadOutcome>, FpgaError> {
    if flags.len() < num_reads {
        return Err(FpgaError::CorruptOutput {
            detail: "flag buffer shorter than the read count",
            observed: flags.len() as u64,
        });
    }
    if positions.len() < num_reads * 4 {
        return Err(FpgaError::CorruptOutput {
            detail: "position buffer shorter than 4 bytes per read",
            observed: positions.len() as u64,
        });
    }
    let mut outcomes = Vec::with_capacity(num_reads);
    for j in 0..num_reads {
        let flag = flags[j];
        if flag > 1 {
            return Err(FpgaError::CorruptOutput {
                detail: "realign flag byte out of range",
                observed: u64::from(flag),
            });
        }
        let word: [u8; 4] =
            positions[j * 4..j * 4 + 4]
                .try_into()
                .map_err(|_| FpgaError::CorruptOutput {
                    detail: "position word is not 4 bytes",
                    observed: j as u64,
                })?;
        let pos = u64::from(u32::from_le_bytes(word));
        let offset = (pos - target_start_pos.min(pos)) as usize;
        outcomes.push(ReadOutcome::from_parts(flag == 1, offset, pos));
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::IndelRealigner;
    use ir_workloads_test_support::figure4_target;

    // A tiny local copy of the Figure 4 target builder to avoid a cyclic
    // dev-dependency on ir-workloads.
    mod ir_workloads_test_support {
        use ir_genome::{Qual, Read, RealignmentTarget};

        pub fn figure4_target() -> RealignmentTarget {
            RealignmentTarget::builder(20)
                .reference("CCTTAGA".parse().unwrap())
                .consensus("ACCTGAA".parse().unwrap())
                .consensus("TCTGCCT".parse().unwrap())
                .read(
                    Read::new(
                        "r0",
                        "TGAA".parse().unwrap(),
                        Qual::from_raw_scores(&[10, 20, 45, 10]).unwrap(),
                        0,
                    )
                    .unwrap(),
                )
                .read(
                    Read::new(
                        "r1",
                        "CCTC".parse().unwrap(),
                        Qual::from_raw_scores(&[10, 60, 30, 20]).unwrap(),
                        0,
                    )
                    .unwrap(),
                )
                .build()
                .unwrap()
        }
    }

    #[test]
    fn buffers_are_slot_aligned() {
        let target = figure4_target();
        let buffers = HostBuffers::from_target(&target);
        // Consensus 1 starts exactly at slot 1.
        assert_eq!(
            &buffers.consensus()[CONSENSUS_SLOT_BYTES..CONSENSUS_SLOT_BYTES + 7],
            b"ACCTGAA"
        );
        // Read 1's bases and quals start at slot 1.
        assert_eq!(
            &buffers.read_bases()[READ_SLOT_BYTES..READ_SLOT_BYTES + 4],
            b"CCTC"
        );
        assert_eq!(
            &buffers.read_quals()[READ_SLOT_BYTES..READ_SLOT_BYTES + 4],
            &[10, 60, 30, 20]
        );
        // Padding is zeroed.
        assert_eq!(buffers.consensus()[7], 0);
    }

    #[test]
    fn payload_matches_shape_and_footprint_is_slots() {
        let target = figure4_target();
        let buffers = HostBuffers::from_target(&target);
        assert_eq!(buffers.payload_bytes(), target.shape().input_bytes());
        assert_eq!(
            buffers.footprint_bytes(),
            3 * CONSENSUS_SLOT_BYTES + 2 * 2 * READ_SLOT_BYTES
        );
        buffers.check_fit().expect("figure 4 fits trivially");
    }

    #[test]
    fn shape_geometry_changes_slot_strides() {
        let target = figure4_target();
        let geometry = BufferGeometry {
            max_consensuses: 4,
            max_reads: 8,
            consensus_slot_bytes: 64,
            read_slot_bytes: 32,
        };
        let buffers = HostBuffers::from_target_with(&target, &geometry);
        // Consensus 1 starts at the *geometry's* slot stride, not 2048.
        assert_eq!(&buffers.consensus()[64..64 + 7], b"ACCTGAA");
        assert_eq!(&buffers.read_bases()[32..32 + 4], b"CCTC");
        assert_eq!(buffers.footprint_bytes(), 3 * 64 + 2 * 2 * 32);
        // Payload bytes are geometry-independent (packed host arrays).
        assert_eq!(
            buffers.payload_bytes(),
            HostBuffers::from_target(&target).payload_bytes()
        );
        assert_eq!(buffers.geometry(), &geometry);
        buffers.check_fit().expect("fits the small geometry");
        // A geometry with too few consensus slots fails its fit check.
        let tiny = BufferGeometry {
            max_consensuses: 2,
            ..geometry
        };
        assert!(matches!(
            HostBuffers::from_target_with(&target, &tiny).check_fit(),
            Err(FpgaError::BufferOverflow {
                buffer: "consensus",
                ..
            })
        ));
    }

    #[test]
    fn outputs_round_trip() {
        let target = figure4_target();
        let result = IndelRealigner::new().realign(&target);
        let (flags, positions) = encode_outputs(result.outcomes(), target.start_pos());
        assert_eq!(flags, vec![1, 0]);
        let decoded =
            decode_outputs(&flags, &positions, target.num_reads(), target.start_pos()).unwrap();
        assert_eq!(decoded[0].realigned(), result.read_outcome(0).realigned());
        assert_eq!(decoded[0].new_pos(), result.read_outcome(0).new_pos());
        assert!(!decoded[1].realigned());
        assert_eq!(decoded[1].new_pos(), None);
    }

    #[test]
    fn decode_rejects_short_buffers_and_bad_flags() {
        assert!(matches!(
            decode_outputs(&[1], &[0, 0, 0, 0], 2, 0),
            Err(FpgaError::CorruptOutput { observed: 1, .. })
        ));
        assert!(matches!(
            decode_outputs(&[1, 1], &[0, 0, 0, 0], 2, 0),
            Err(FpgaError::CorruptOutput { observed: 4, .. })
        ));
        assert!(matches!(
            decode_outputs(&[2], &[0, 0, 0, 0], 1, 0),
            Err(FpgaError::CorruptOutput { observed: 2, .. })
        ));
    }
}
