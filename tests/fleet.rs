//! Fleet-level differential test suite.
//!
//! Pins the two contracts that make the multi-node fleet trustworthy:
//!
//! 1. **Determinism** — at 2, 4 and 8 nodes, same-seed runs are
//!    byte-identical, and the oracle pre-warm thread count
//!    (`ServeConfig::threads`, the knob `IR_THREADS` maps to) changes
//!    nothing.
//! 2. **Routing conservation** — every offered request is accounted for
//!    (completed + rejected) at every node count, ids are served exactly
//!    once, the response *payloads* (consensus, realigned count) for a
//!    given request id are topology-invariant, and the one-node fleet —
//!    the single-pool service — fires none of the fleet machinery.
//!
//! The single-pool service *is* the one-node fleet, so its own verdict
//! is pinned by the golden digests in `tests/serve.rs` (this suite's
//! workload and config are the same). Each `(nodes, threads)` topology
//! runs once and is shared across tests; the determinism contract runs
//! one independent second run per node count.

use std::sync::OnceLock;

use ir_system::fpga::FaultRates;
use ir_system::serve::{
    FaultInjection, FleetConfig, FleetReport, FleetService, Request, ServeConfig,
};
use ir_system::workloads::{ArrivalProcess, WorkloadConfig, WorkloadGenerator};

const WORKLOAD_SEED: u64 = 77;
const ARRIVAL_SEED: u64 = 13;
const FAULT_SEED: u64 = 5;
const REQUESTS: usize = 24;
const RATE_RPS: f64 = 20_000.0;

fn requests() -> Vec<Request> {
    let targets = WorkloadGenerator::new(WorkloadConfig {
        seed: WORKLOAD_SEED,
        scale: 1e-4,
        ..WorkloadConfig::default()
    })
    .targets(REQUESTS, WORKLOAD_SEED);
    let times = ArrivalProcess::poisson(ARRIVAL_SEED, RATE_RPS).times(targets.len());
    targets
        .into_iter()
        .zip(times)
        .enumerate()
        .map(|(i, (t, at))| Request::new(i as u64, at, t))
        .collect()
}

fn node_config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        // Faults on: the contracts must hold with the full resilience
        // layer and per-shard fault RNGs engaged, not just on the clean
        // path.
        faults: Some(FaultInjection {
            seed: FAULT_SEED,
            rates: FaultRates::uniform(0.05),
        }),
        ..ServeConfig::default()
    }
}

fn run_fleet(nodes: usize, threads: usize) -> FleetReport {
    let mut fleet = FleetService::new(FleetConfig {
        nodes,
        node: node_config(threads),
        ..FleetConfig::default()
    })
    .expect("valid fleet config");
    fleet.run(requests()).expect("fleet run succeeds")
}

/// The topologies the suite runs, each computed once and shared.
const TOPOLOGIES: [(usize, usize); 6] = [(1, 1), (2, 1), (4, 1), (8, 1), (2, 4), (4, 4)];

/// The shared run of `nodes` nodes at `threads` oracle threads.
fn shared_run(nodes: usize, threads: usize) -> &'static FleetReport {
    static RUNS: [OnceLock<FleetReport>; TOPOLOGIES.len()] =
        [const { OnceLock::new() }; TOPOLOGIES.len()];
    let slot = TOPOLOGIES
        .iter()
        .position(|&t| t == (nodes, threads))
        .expect("topology listed in TOPOLOGIES");
    RUNS[slot].get_or_init(|| run_fleet(nodes, threads))
}

/// Contract 1a: same-seed fleet runs are byte-identical at every node
/// count, including the JSON export.
#[test]
fn same_seed_fleet_runs_are_identical_at_2_4_8_nodes() {
    for nodes in [2, 4, 8] {
        let a = shared_run(nodes, 1);
        let b = run_fleet(nodes, 1);
        for (ra, rb) in a.node_reports.iter().zip(&b.node_reports) {
            assert_eq!(ra.responses, rb.responses, "{nodes}-node responses");
            assert_eq!(ra.rejections, rb.rejections, "{nodes}-node rejections");
        }
        let ca: Vec<_> = a.counters.counters().collect();
        let cb: Vec<_> = b.counters.counters().collect();
        assert_eq!(ca, cb, "{nodes}-node fleet counters");
        assert_eq!(a.to_json(), b.to_json(), "{nodes}-node fleet JSON");
    }
}

/// Contract 1b: the oracle pre-warm thread count is invisible to the
/// fleet, exactly as it is to the single pool.
#[test]
fn thread_count_does_not_change_fleet_responses() {
    for nodes in [2, 4] {
        let single_threaded = shared_run(nodes, 1);
        let multi_threaded = shared_run(nodes, 4);
        for (ra, rb) in single_threaded
            .node_reports
            .iter()
            .zip(&multi_threaded.node_reports)
        {
            assert_eq!(ra.responses, rb.responses, "{nodes}-node thread variance");
            assert_eq!(ra.rejections, rb.rejections);
        }
        assert_eq!(single_threaded.to_json(), multi_threaded.to_json());
    }
}

/// Contract 2: every offered request is accounted for at every node
/// count, ids are served exactly once, and a given request's
/// realignment result does not depend on which node served it. The
/// one-node fleet is the single-pool reference.
#[test]
fn routing_conserves_requests_and_payloads_across_topologies() {
    let one_node = shared_run(1, 1);
    assert_eq!(one_node.node_reports.len(), 1);
    // No fleet machinery fires on the one-node topology.
    for key in [
        "fleet/rerouted",
        "fleet/drained",
        "fleet/lost_work_ms",
        "fleet/interruptions",
        "fleet/scale_ups",
        "fleet/scale_downs",
        "fleet/hops",
    ] {
        assert_eq!(one_node.counters.counter(key), 0, "{key} fired on one node");
    }
    let single = &one_node.node_reports[0];
    assert_eq!(one_node.makespan_s.to_bits(), single.makespan_s.to_bits());
    for nodes in [2, 4, 8] {
        let fleet = shared_run(nodes, 1);
        assert_eq!(
            fleet.offered() as usize,
            REQUESTS,
            "{nodes}-node fleet lost or duplicated requests"
        );
        let by_id = fleet.responses_by_id();
        let mut ids: Vec<u64> = by_id.iter().map(|r| r.id).collect();
        ids.dedup();
        assert_eq!(
            ids.len(),
            by_id.len(),
            "{nodes}-node duplicate response ids"
        );
        for resp in by_id {
            let golden = single
                .responses
                .iter()
                .find(|r| r.id == resp.id)
                .expect("id served by the single pool");
            assert_eq!(
                resp.best_consensus, golden.best_consensus,
                "request {} consensus depends on topology",
                resp.id
            );
            assert_eq!(
                resp.realigned, golden.realigned,
                "request {} realigned count depends on topology",
                resp.id
            );
        }
        // The fleet spread work across nodes (the router is not a
        // constant function) once there is more than one node.
        let serving_nodes = fleet
            .node_reports
            .iter()
            .filter(|r| !r.responses.is_empty())
            .count();
        assert!(
            serving_nodes > 1,
            "{nodes}-node fleet routed everything to one node"
        );
    }
}

/// The fleet JSON export carries the cost model and parses as JSON.
#[test]
fn fleet_json_export_carries_cost_model() {
    let fleet = shared_run(2, 1);
    let json = fleet.to_json();
    let doc = ir_system::telemetry::json::parse_json(&json).expect("fleet JSON parses");
    for key in [
        "nodes",
        "peak_nodes",
        "completed",
        "throughput_rps",
        "latency_p99_us",
        "slo_attainment",
        "node_seconds",
        "cost_usd",
        "cost_per_million_targets_usd",
        "counters",
        "per_node",
    ] {
        assert!(doc.get(key).is_some(), "fleet JSON misses {key}");
    }
    assert!(fleet.cost_usd() > 0.0, "nodes billed zero seconds");
    assert!(
        fleet.cost_per_million_targets_usd() > 0.0,
        "cost per million targets must be positive for a non-empty run"
    );
    let per_node_cost = fleet.node_seconds();
    assert!(
        (per_node_cost - fleet.node_active_s.iter().sum::<f64>()).abs() < 1e-12,
        "node_seconds disagrees with the per-node breakdown"
    );
}
