//! Round-robin memory arbiters (paper Figure 6).
//!
//! Each IR unit's five memory channels (three MemReaders, two MemWriters)
//! meet in an **Intra-IR Mem Read/Write Arbiter (5:1)**; the 32 per-unit
//! channels then meet in the **IR Mem ARB 32:1** in front of the AXI
//! crossbar and the DDR controller. One TileLink beat moves per grant per
//! cycle.
//!
//! The system simulator prices transfers with a max-min fair bandwidth
//! model ([`crate::mem::SharedChannel`]); this module provides the actual
//! cycle-accurate arbiter those numbers abstract, plus the test that pins
//! the abstraction to it: interleaved round-robin service completes each
//! port within one round of the fair-share prediction.

/// A rotating-priority (round-robin) arbiter over `ports` requestors.
///
/// # Example
///
/// ```
/// use ir_fpga::arbiter::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(3);
/// assert_eq!(arb.grant(&[true, false, true]), Some(0));
/// // Priority rotates past the last grantee.
/// assert_eq!(arb.grant(&[true, false, true]), Some(2));
/// assert_eq!(arb.grant(&[true, false, true]), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    ports: usize,
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter with priority initially at port 0.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "arbiter needs at least one port");
        RoundRobinArbiter { ports, next: 0 }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Grants one requesting port this cycle (rotating priority), or
    /// `None` if nothing requests.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != ports`.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.ports, "request vector width mismatch");
        for i in 0..self.ports {
            let port = (self.next + i) % self.ports;
            if requests[port] {
                self.next = (port + 1) % self.ports;
                return Some(port);
            }
        }
        None
    }
}

/// Completion cycles of `demands` (beats needed per port) drained through
/// one single-beat-per-cycle channel under round-robin arbitration.
/// `completion[i]` is the cycle (1-based) on which port `i`'s last beat
/// moves; ports with zero demand complete at cycle 0.
pub fn drain_round_robin(demands: &[u64]) -> Vec<u64> {
    let mut remaining = demands.to_vec();
    let mut completion = vec![0u64; demands.len()];
    let mut arb = RoundRobinArbiter::new(demands.len().max(1));
    let mut cycle = 0u64;
    loop {
        let requests: Vec<bool> = remaining.iter().map(|&r| r > 0).collect();
        let Some(port) = arb.grant(&requests) else {
            break;
        };
        cycle += 1;
        remaining[port] -= 1;
        if remaining[port] == 0 {
            completion[port] = cycle;
        }
    }
    completion
}

/// Contention summary of one arbitrated drain, computed in closed form by
/// [`contention_stats`] (what the telemetry layer records per target).
///
/// Round-robin from port 0 serves the drain in rounds: round `r` grants,
/// in port order, one beat to every port whose demand `d_j` is at least
/// `r`. So a port `i` with `d_i > 0` moves its last beat on cycle
///
/// ```text
/// completion_i = Σ_j min(d_j, d_i − 1) + #{ j ≤ i : d_j ≥ d_i }
/// ```
///
/// — every beat of the first `d_i − 1` rounds, then its own round up to
/// and including itself. This is exact with respect to
/// [`drain_round_robin`], which stays as the cycle-stepping reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Beats granted (= total demand; the channel never idles mid-drain).
    pub grants: u64,
    /// Cycles during which two or more ports held pending beats — the
    /// cycles round-robin interleaving actually cost somebody. The pending
    /// count only ever decreases, so this is the second-largest
    /// `completion_i`.
    pub conflict_cycles: u64,
    /// Most ports simultaneously pending (the queue-depth high-water mark,
    /// reached on the very first cycle).
    pub queue_depth_hwm: u64,
}

/// Round-robin contention statistics for `demands` beats per port, from
/// the closed form on [`ArbiterStats`]: `O(ports²)` and allocation-free,
/// however many beats the drain moves.
pub fn contention_stats(demands: &[u64]) -> ArbiterStats {
    let mut stats = ArbiterStats::default();
    let (mut largest, mut second) = (0u64, 0u64);
    for (i, &di) in demands.iter().enumerate() {
        if di == 0 {
            continue;
        }
        stats.grants += di;
        stats.queue_depth_hwm += 1;
        let earlier_rounds: u64 = demands.iter().map(|&dj| dj.min(di - 1)).sum();
        let own_round = demands[..=i].iter().filter(|&&dj| dj >= di).count() as u64;
        let c = earlier_rounds + own_round;
        if c > largest {
            second = largest;
            largest = c;
        } else if c > second {
            second = c;
        }
    }
    stats.conflict_cycles = second;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requestor_gets_every_cycle() {
        let mut arb = RoundRobinArbiter::new(5);
        for _ in 0..10 {
            assert_eq!(arb.grant(&[false, false, true, false, false]), Some(2));
        }
    }

    #[test]
    fn idle_arbiter_grants_nothing() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.grant(&[false; 4]), None);
    }

    #[test]
    fn grants_are_fair_over_a_window() {
        let mut arb = RoundRobinArbiter::new(5);
        let mut counts = [0u32; 5];
        for _ in 0..1000 {
            let port = arb.grant(&[true; 5]).expect("all requesting");
            counts[port] += 1;
        }
        assert_eq!(counts, [200; 5], "perfect fairness under full load");
    }

    #[test]
    fn rotation_prevents_starvation_with_partial_load() {
        let mut arb = RoundRobinArbiter::new(3);
        let mut counts = [0u32; 3];
        for i in 0..300 {
            // Port 1 requests only every third cycle; the others always.
            let requests = [true, i % 3 == 0, true];
            if let Some(port) = arb.grant(&requests) {
                counts[port] += 1;
            }
        }
        assert!(counts[1] > 0, "intermittent requestor must still be served");
        assert!(counts[0] > 0 && counts[2] > 0);
    }

    #[test]
    fn drain_matches_fair_share_prediction() {
        // Five equal demands (the intra-unit 5:1 case): everyone finishes
        // within one round of the analytic fair-share time.
        let demands = [100u64; 5];
        let completion = drain_round_robin(&demands);
        for &c in &completion {
            assert!((496..=500).contains(&c), "completion {c} vs fair-share 500");
        }
    }

    #[test]
    fn drain_short_demands_finish_early() {
        // One small reader among four heavy ones completes near 5× its own
        // demand (its fair share), not near the total.
        let demands = [10u64, 400, 400, 400, 400];
        let completion = drain_round_robin(&demands);
        assert!(completion[0] <= 50, "small port done at {}", completion[0]);
        let max = *completion.iter().max().unwrap();
        assert_eq!(max, 1610, "channel busy every cycle until all beats move");
    }

    #[test]
    fn drain_agrees_with_shared_channel_model() {
        // The 32:1 system arbiter under full load must match the
        // SharedChannel fair-sharing abstraction the scheduler uses.
        use crate::mem::{SharedChannel, TransferRequest};
        let demands = [64u64; 32];
        let completion = drain_round_robin(&demands);
        // SharedChannel with 1 beat/cycle total and no per-client cap:
        let link = SharedChannel::new(1.0, 1.0);
        let requests: Vec<TransferRequest> = demands
            .iter()
            .map(|&b| TransferRequest {
                bytes: b,
                ready_at_s: 0.0,
            })
            .collect();
        let finish = link.schedule(&requests);
        for (c, f) in completion.iter().zip(&finish) {
            let fair = *f; // "seconds" = cycles at 1 beat/cycle
            assert!(
                (*c as f64 - fair).abs() <= 32.0,
                "cycle-accurate {c} vs fair-share {fair}"
            );
        }
    }

    #[test]
    fn zero_demands_complete_at_zero() {
        assert_eq!(drain_round_robin(&[0, 0, 3]), vec![0, 0, 3]);
    }

    /// Re-runs the exact cycle loop counting, per granted cycle, how many
    /// ports still held pending beats.
    fn exact_stats(demands: &[u64]) -> ArbiterStats {
        let mut remaining = demands.to_vec();
        let mut arb = RoundRobinArbiter::new(demands.len().max(1));
        let mut stats = ArbiterStats {
            queue_depth_hwm: demands.iter().filter(|&&d| d > 0).count() as u64,
            ..ArbiterStats::default()
        };
        loop {
            let requests: Vec<bool> = remaining.iter().map(|&r| r > 0).collect();
            let pending = requests.iter().filter(|&&r| r).count() as u64;
            let Some(port) = arb.grant(&requests) else {
                break;
            };
            stats.grants += 1;
            if pending >= 2 {
                stats.conflict_cycles += 1;
            }
            remaining[port] -= 1;
        }
        stats
    }

    #[test]
    fn contention_stats_match_exact_drain() {
        for demands in [
            vec![0u64, 0, 0],
            vec![7],
            vec![100; 5],
            vec![10, 400, 400, 400, 400],
            vec![0, 3, 9, 1, 0, 27],
            vec![64; 32],
        ] {
            assert_eq!(
                contention_stats(&demands),
                exact_stats(&demands),
                "demands {demands:?}"
            );
        }
    }

    mod closed_form {
        use super::*;
        use proptest::prelude::*;

        /// Demands with zeros and ties on purpose: half the draws are 0
        /// or 3,000 and a quarter come from 0–4, so equal demands are
        /// common.
        fn demand() -> impl Strategy<Value = u64> {
            prop_oneof![Just(0u64), 0u64..=4, 0u64..=3_000, Just(3_000u64)]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases_env(64))]
            #[test]
            fn contention_stats_equal_the_cycle_drain(
                demands in prop::collection::vec(demand(), 0usize..=32),
            ) {
                prop_assert_eq!(
                    contention_stats(&demands),
                    exact_stats(&demands),
                    "demands {:?}",
                    demands
                );
            }
        }
    }

    #[test]
    fn contention_stats_edge_cases() {
        assert_eq!(contention_stats(&[]), ArbiterStats::default());
        let solo = contention_stats(&[42]);
        assert_eq!(solo.grants, 42);
        assert_eq!(solo.conflict_cycles, 0);
        assert_eq!(solo.queue_depth_hwm, 1);
        // Two equal demands conflict until the first port drains its last
        // beat (cycle 9 of 10); the final beat moves uncontended.
        let pair = contention_stats(&[5, 5]);
        assert_eq!(pair.grants, 10);
        assert_eq!(pair.conflict_cycles, 9);
        assert_eq!(pair.queue_depth_hwm, 2);
    }
}
