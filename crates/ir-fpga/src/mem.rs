//! FPGA-attached memory system: per-unit channels and shared-bandwidth
//! scheduling.
//!
//! Each IR unit owns five memory channels — three `MemReader`s (consensus
//! bases, read bases, quality scores) and two `MemWriter`s (realign flags,
//! new positions) — arbitrated 5:1 inside the unit and then 32:1 across
//! units into the single DDR4 controller the design instantiates (paper
//! Figure 6). The unit-side TileLink port moves one 256-bit beat per cycle;
//! the DDR channel sustains ≈ 4× that, so a handful of units can stream
//! concurrently without slowdown.

use ir_genome::TargetShape;

/// Fixed DRAM access latency charged once per load/drain burst, in cycles.
pub const BURST_LATENCY_CYCLES: u64 = 40;

/// DDR4 row-buffer size in bytes (1 KiB pages on the F1's DDR4-2133
/// DIMMs). Sequential streams that stay inside an open row hit the row
/// buffer; each new row costs an activate.
pub const DDR_ROW_BYTES: u64 = 1024;

/// Per-target DDR traffic summary the telemetry layer records: the five
/// per-unit streams (three MemReaders, two MemWriters) expressed as beats,
/// row activations and row-buffer hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstStats {
    /// Beats per stream: consensus bases, read bases, quality scores,
    /// realign flags, new positions.
    pub stream_beats: [u64; 5],
    /// Total beats across all five streams.
    pub beats: u64,
    /// DDR rows activated (each stream is sequential, so one activate per
    /// [`DDR_ROW_BYTES`] touched per stream).
    pub rows_activated: u64,
    /// Beats served from an already-open row.
    pub row_hits: u64,
    /// Total bytes moved (input + output).
    pub bytes: u64,
}

/// Computes the [`BurstStats`] for one target's load + drain through a
/// `bus_bytes`-per-beat port, from the target's summed consensus and read
/// lengths in bases and its read count (the only inputs the five streams
/// depend on, so a caller needs no [`TargetShape`]).
pub fn burst_stats(
    consensus_bytes: u64,
    read_bytes: u64,
    num_reads: u64,
    bus_bytes: u64,
) -> BurstStats {
    let stream_bytes = [
        consensus_bytes,
        read_bytes,
        read_bytes,    // one quality byte per base
        num_reads,     // one realign flag per read
        4 * num_reads, // one 4-byte new position per read
    ];
    let mut stats = BurstStats::default();
    for (i, &bytes) in stream_bytes.iter().enumerate() {
        let beats = bytes.div_ceil(bus_bytes);
        let rows = bytes.div_ceil(DDR_ROW_BYTES);
        stats.stream_beats[i] = beats;
        stats.beats += beats;
        stats.rows_activated += rows;
        // With bus_bytes ≤ row size every row boundary lands on a beat
        // boundary, so exactly one beat per touched row misses.
        stats.row_hits += beats.saturating_sub(rows);
        stats.bytes += bytes;
    }
    stats
}

/// Cycles for a unit to fill its three input buffers for `shape` through
/// its 5:1-arbitrated TileLink port of `bus_bytes` per beat.
pub fn load_cycles(shape: &TargetShape, bus_bytes: u64) -> u64 {
    BURST_LATENCY_CYCLES + shape.input_bytes().div_ceil(bus_bytes)
}

/// Cycles for a unit to drain its two output buffers.
pub fn drain_cycles(shape: &TargetShape, bus_bytes: u64) -> u64 {
    BURST_LATENCY_CYCLES + shape.output_bytes().div_ceil(bus_bytes)
}

/// A transfer request submitted to a [`SharedChannel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRequest {
    /// Bytes to move.
    pub bytes: u64,
    /// Time the transfer becomes ready, in seconds.
    pub ready_at_s: f64,
}

/// A bandwidth-shared link (the DDR channel or the PCIe DMA path) using
/// max-min fair progressive filling: at any instant, each active transfer
/// receives `min(per_client_cap, total_bandwidth / active_count)`.
///
/// # Example
///
/// ```
/// use ir_fpga::mem::{SharedChannel, TransferRequest};
///
/// let link = SharedChannel::new(16e9, 4e9);
/// // Two transfers of 4 GB each, started together: each gets 4 GB/s
/// // (per-client cap), finishing after 1 s.
/// let done = link.schedule(&[
///     TransferRequest { bytes: 4_000_000_000, ready_at_s: 0.0 },
///     TransferRequest { bytes: 4_000_000_000, ready_at_s: 0.0 },
/// ]);
/// assert!((done[0] - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedChannel {
    bandwidth_bytes_per_s: f64,
    per_client_cap_bytes_per_s: f64,
}

impl SharedChannel {
    /// Creates a channel with total and per-client bandwidth in bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is non-positive.
    pub fn new(bandwidth_bytes_per_s: f64, per_client_cap_bytes_per_s: f64) -> Self {
        assert!(bandwidth_bytes_per_s > 0.0 && per_client_cap_bytes_per_s > 0.0);
        SharedChannel {
            bandwidth_bytes_per_s,
            per_client_cap_bytes_per_s,
        }
    }

    /// Total channel bandwidth in bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth_bytes_per_s
    }

    /// Computes the finish time of every transfer under max-min fair
    /// sharing. Returns finish times in the same order as `transfers`.
    pub fn schedule(&self, transfers: &[TransferRequest]) -> Vec<f64> {
        let n = transfers.len();
        let mut remaining: Vec<f64> = transfers.iter().map(|t| t.bytes as f64).collect();
        let mut finish = vec![0.0f64; n];
        let mut done = vec![false; n];
        let mut now = transfers
            .iter()
            .map(|t| t.ready_at_s)
            .fold(f64::INFINITY, f64::min);
        if !now.is_finite() {
            return finish;
        }

        loop {
            let active: Vec<usize> = (0..n)
                .filter(|&i| !done[i] && transfers[i].ready_at_s <= now + 1e-15)
                .collect();
            let next_arrival = (0..n)
                .filter(|&i| !done[i] && transfers[i].ready_at_s > now + 1e-15)
                .map(|i| transfers[i].ready_at_s)
                .fold(f64::INFINITY, f64::min);

            if active.is_empty() {
                if next_arrival.is_finite() {
                    now = next_arrival;
                    continue;
                }
                break;
            }

            let rate = (self.bandwidth_bytes_per_s / active.len() as f64)
                .min(self.per_client_cap_bytes_per_s);
            // Time until the first active transfer completes at this rate.
            let first_completion = active
                .iter()
                .map(|&i| remaining[i] / rate)
                .fold(f64::INFINITY, f64::min);
            let step = first_completion.min(next_arrival - now);

            for &i in &active {
                remaining[i] -= rate * step;
                if remaining[i] <= 1e-9 {
                    remaining[i] = 0.0;
                    done[i] = true;
                    finish[i] = now + step;
                }
            }
            now += step;
            if done.iter().all(|&d| d) {
                break;
            }
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(cons: &[usize], reads: &[usize]) -> TargetShape {
        TargetShape {
            num_consensuses: cons.len(),
            num_reads: reads.len(),
            consensus_lens: cons.to_vec(),
            read_lens: reads.to_vec(),
        }
    }

    #[test]
    fn load_cycles_round_up() {
        let s = shape(&[100], &[50]);
        // input = 100 + 2×50 = 200 bytes → ceil(200/32) = 7 beats.
        assert_eq!(load_cycles(&s, 32), BURST_LATENCY_CYCLES + 7);
    }

    #[test]
    fn drain_is_cheap() {
        let s = shape(&[2048; 32], &[256; 256]);
        // output = 5 × 256 = 1280 bytes → 40 beats.
        assert_eq!(drain_cycles(&s, 32), BURST_LATENCY_CYCLES + 40);
    }

    /// [`burst_stats`] over a shape's sums.
    fn shape_burst(s: &TargetShape, bus_bytes: u64) -> BurstStats {
        let cons = s.consensus_lens.iter().map(|&l| l as u64).sum();
        let reads = s.read_lens.iter().map(|&l| l as u64).sum();
        burst_stats(cons, reads, s.num_reads as u64, bus_bytes)
    }

    #[test]
    fn burst_stats_count_streams_rows_and_beats() {
        let s = shape(&[2048, 2048], &[256; 8]);
        let stats = shape_burst(&s, 32);
        // consensus 4096 B → 128 beats, 4 rows; reads/quals 2048 B → 64
        // beats, 2 rows each; flags 8 B → 1 beat, 1 row; positions 32 B →
        // 1 beat, 1 row.
        assert_eq!(stats.stream_beats, [128, 64, 64, 1, 1]);
        assert_eq!(stats.beats, 258);
        assert_eq!(stats.rows_activated, 4 + 2 + 2 + 1 + 1);
        assert_eq!(stats.row_hits, 258 - 10);
        assert_eq!(stats.bytes, s.input_bytes() + s.output_bytes());
    }

    #[test]
    fn burst_stats_row_hits_never_exceed_beats() {
        let s = shape(&[100, 37], &[50, 3]);
        let stats = shape_burst(&s, 32);
        assert!(stats.row_hits <= stats.beats);
        assert_eq!(stats.rows_activated, 5, "every stream opens one row");
        let total: u64 = stats.stream_beats.iter().sum();
        assert_eq!(total, stats.beats);
    }

    #[test]
    fn single_transfer_runs_at_client_cap() {
        let link = SharedChannel::new(16e9, 4e9);
        let done = link.schedule(&[TransferRequest {
            bytes: 4_000_000_000,
            ready_at_s: 0.0,
        }]);
        assert!((done[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn four_clients_saturate_without_slowdown() {
        // 16 GB/s channel, 4 GB/s per client: 4 concurrent clients still
        // each get their full cap.
        let link = SharedChannel::new(16e9, 4e9);
        let reqs = vec![
            TransferRequest {
                bytes: 4_000_000_000,
                ready_at_s: 0.0
            };
            4
        ];
        for t in link.schedule(&reqs) {
            assert!((t - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn eight_clients_halve_throughput() {
        let link = SharedChannel::new(16e9, 4e9);
        let reqs = vec![
            TransferRequest {
                bytes: 2_000_000_000,
                ready_at_s: 0.0
            };
            8
        ];
        for t in link.schedule(&reqs) {
            assert!(
                (t - 1.0).abs() < 1e-9,
                "each client gets 2 GB/s, so 1 s for 2 GB, got {t}"
            );
        }
    }

    #[test]
    fn staggered_arrivals_are_respected() {
        let link = SharedChannel::new(10e9, 10e9);
        let done = link.schedule(&[
            TransferRequest {
                bytes: 10_000_000_000,
                ready_at_s: 0.0,
            },
            TransferRequest {
                bytes: 5_000_000_000,
                ready_at_s: 2.0,
            },
        ]);
        // First runs alone 0..2 s (10 GB/s → 20 GB? no: 10 GB total, so it
        // has 10 GB; after 2 s it has 10 GB... it finishes exactly at 2 s
        // with 20 GB moved? No — 10 GB at 10 GB/s = 1 s, before the second
        // even arrives.
        assert!((done[0] - 1.0).abs() < 1e-9);
        assert!((done[1] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn contention_then_drain() {
        let link = SharedChannel::new(8e9, 8e9);
        let done = link.schedule(&[
            TransferRequest {
                bytes: 8_000_000_000,
                ready_at_s: 0.0,
            },
            TransferRequest {
                bytes: 4_000_000_000,
                ready_at_s: 0.0,
            },
        ]);
        // Shared at 4 GB/s each: second finishes at 1 s; first then runs
        // alone at 8 GB/s with 4 GB left → 1.5 s.
        assert!((done[1] - 1.0).abs() < 1e-9);
        assert!((done[0] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_schedule_is_empty() {
        let link = SharedChannel::new(1e9, 1e9);
        assert!(link.schedule(&[]).is_empty());
    }
}
