//! Fleet fault machinery: spot-interruption drain and the SLO autoscaler.
//!
//! The drain tests pin the exactly-once contract under interruptions:
//! every offered request either completes once or is shed with a typed
//! rejection — never lost, never duplicated — and the `fleet/*` counters
//! account for the drain traffic. The autoscaler tests drive
//! [`Autoscaler::observe`] directly as the pure state machine it is:
//! scaling is monotone under sustained load, bounded by min/max, gated by
//! cooldown, and never triggered by a single-sample spike.
//!
//! The spot fleet runs once and is shared by the drain tests; the
//! determinism test adds one independent second run.

use std::sync::OnceLock;

use ir_system::serve::{
    Autoscaler, AutoscalerConfig, FleetConfig, FleetReport, FleetService, Request, ScaleDecision,
    ServeConfig, SpotProfile,
};
use ir_system::workloads::{ArrivalProcess, WorkloadConfig, WorkloadGenerator};
use proptest::prelude::*;

const WORKLOAD_SEED: u64 = 31;
const ARRIVAL_SEED: u64 = 17;
const REQUESTS: usize = 48;
const RATE_RPS: f64 = 40_000.0;

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

/// A 3-node fleet under an aggressive spot market: the mean interruption
/// gap (~1 virtual millisecond) sits inside the run's makespan, so
/// interruptions reliably fire mid-traffic.
fn spot_config() -> FleetConfig {
    FleetConfig {
        nodes: 3,
        node: ServeConfig::default(),
        hop_latency_s: 2e-6,
        spot: Some(SpotProfile {
            seed: 9,
            interruptions_per_hour: 3.6e6,
            drain_grace_s: 300e-6,
        }),
        ..FleetConfig::default()
    }
}

fn run_spot_fleet() -> FleetReport {
    FleetService::new(spot_config())
        .expect("valid fleet config")
        .run(requests())
        .expect("spot fleet run succeeds")
}

/// The spot fleet run shared across tests.
fn spot_fleet() -> &'static FleetReport {
    static SPOT: OnceLock<FleetReport> = OnceLock::new();
    SPOT.get_or_init(run_spot_fleet)
}

/// Exactly-once under interruptions: every offered request completes once
/// or is rejected once — no request is lost with a node and none is
/// duplicated by the reroute path.
#[test]
fn spot_drain_serves_every_request_exactly_once() {
    let report = spot_fleet();
    assert!(
        report.counters.counter("fleet/interruptions") >= 1,
        "the aggressive spot market must interrupt at least one node"
    );

    let mut served: Vec<u64> = report.responses_by_id().iter().map(|r| r.id).collect();
    let mut shed: Vec<u64> = report
        .node_reports
        .iter()
        .flat_map(|r| r.rejections.iter().map(|x| x.id))
        .collect();
    let served_count = served.len();
    served.dedup();
    assert_eq!(served.len(), served_count, "duplicate response ids");
    shed.sort_unstable();
    let shed_count = shed.len();
    shed.dedup();
    assert_eq!(shed.len(), shed_count, "duplicate rejection ids");

    let mut all: Vec<u64> = served.iter().chain(shed.iter()).copied().collect();
    all.sort_unstable();
    let expected: Vec<u64> = (0..REQUESTS as u64).collect();
    assert_eq!(
        all, expected,
        "served + shed must partition the offered stream exactly"
    );
}

/// The drain counters account for the interruption traffic: interrupted
/// nodes rerouted or drained their work, the drained node count never
/// exceeds total completions, and lost work only appears when a batch
/// was actually cancelled (which also reroutes its requests).
#[test]
fn drain_counters_partition_interruption_traffic() {
    let report = spot_fleet();
    let interruptions = report.counters.counter("fleet/interruptions");
    let rerouted = report.counters.counter("fleet/rerouted");
    let drained = report.counters.counter("fleet/drained");
    assert!(interruptions >= 1, "no interruption fired");
    assert!(
        rerouted + drained >= 1,
        "interruptions mid-traffic must move or finish some work"
    );
    assert!(
        drained <= report.completed(),
        "drained responses are a subset of completions"
    );
    if report.counters.counter("fleet/lost_work_ms") > 0 {
        assert!(
            rerouted > 0,
            "cancelled batches must reroute their requests"
        );
    }
    // Dead nodes stopped billing: at least one node's active time is
    // strictly shorter than the fleet makespan.
    assert!(
        report.node_active_s.iter().any(|&s| s < report.makespan_s),
        "an interrupted node must stop accruing node-seconds"
    );
}

/// Spot-fleet runs remain byte-deterministic: the interruption stream is
/// seeded, so two same-config runs agree bitwise.
#[test]
fn spot_fleet_runs_are_deterministic() {
    let a = spot_fleet();
    let b = run_spot_fleet();
    assert_eq!(a.to_json(), b.to_json());
    for (ra, rb) in a.node_reports.iter().zip(&b.node_reports) {
        assert_eq!(ra.responses, rb.responses);
        assert_eq!(ra.rejections, rb.rejections);
    }
}

fn scaler_config() -> AutoscalerConfig {
    AutoscalerConfig {
        min_nodes: 1,
        max_nodes: 4,
        p99_slo_s: 10e-3,
        eval_period_s: 50e-3,
        cooldown_s: 100e-3,
        breach_windows: 2,
        clear_windows: 3,
        scale_down_fraction: 0.4,
    }
}

/// Sustained overload scales up monotonically to `max_nodes` and never
/// beyond; a single breach window never scales.
#[test]
fn autoscaler_is_monotone_under_sustained_load_and_respects_max() {
    let cfg = scaler_config();
    let mut scaler = Autoscaler::new(cfg);
    let mut nodes = 1usize;
    let breach = Some(cfg.p99_slo_s * 2.0);

    // One spike then recovery: no scale action.
    assert_eq!(scaler.observe(0.05, breach, nodes), ScaleDecision::Hold);
    assert_eq!(
        scaler.observe(0.10, Some(cfg.p99_slo_s * 0.9), nodes),
        ScaleDecision::Hold,
        "a single-sample spike must never scale"
    );

    // Sustained breach: node count climbs, never decreases, caps at max.
    let mut history = vec![nodes];
    for i in 0..60 {
        let now = 0.15 + i as f64 * cfg.eval_period_s;
        match scaler.observe(now, breach, nodes) {
            ScaleDecision::Up => nodes += 1,
            ScaleDecision::Down => panic!("scaled down under sustained overload"),
            ScaleDecision::Hold => {}
        }
        history.push(nodes);
    }
    assert!(
        history.windows(2).all(|w| w[1] >= w[0]),
        "node count must be monotone under sustained load"
    );
    assert_eq!(nodes, cfg.max_nodes, "sustained overload must reach max");
}

/// Sustained idle shrinks to `min_nodes` and never below; cooldown spaces
/// consecutive actions by at least `cooldown_s`.
#[test]
fn autoscaler_respects_min_and_cooldown() {
    let cfg = scaler_config();
    let mut scaler = Autoscaler::new(cfg);
    let mut nodes = 4usize;
    let mut action_times: Vec<f64> = Vec::new();
    for i in 0..80 {
        let now = i as f64 * cfg.eval_period_s;
        // Idle windows (no completions) count as clear.
        match scaler.observe(now, None, nodes) {
            ScaleDecision::Down => {
                nodes -= 1;
                action_times.push(now);
            }
            ScaleDecision::Up => panic!("scaled up while idle"),
            ScaleDecision::Hold => {}
        }
        assert!(nodes >= cfg.min_nodes, "shrank below min_nodes");
    }
    assert_eq!(nodes, cfg.min_nodes, "sustained idle must reach min");
    assert!(
        action_times
            .windows(2)
            .all(|w| w[1] - w[0] >= cfg.cooldown_s - 1e-12),
        "consecutive actions inside the cooldown window: {action_times:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For ANY window sequence, the machine keeps its invariants: node
    /// count stays in [min, max], actions are spaced by the cooldown,
    /// and an Up is only ever issued after `breach_windows` breaching
    /// windows uninterrupted by a measured-healthy one (empty windows
    /// carry no recovery evidence and do not reset the streak).
    #[test]
    fn autoscaler_invariants_hold_on_arbitrary_metric_sequences(
        windows in prop::collection::vec(
            prop_oneof![
                Just(None),                       // idle window
                (0.1f64..0.9).prop_map(Some),     // clear (fraction of SLO applied below)
                (1.1f64..10.0).prop_map(Some),    // breach (multiple of SLO)
            ],
            1..120,
        )
    ) {
        let cfg = scaler_config();
        let mut scaler = Autoscaler::new(cfg);
        let mut nodes = cfg.min_nodes;
        let mut last_action: Option<f64> = None;
        let mut breach_run = 0u32;
        for (i, w) in windows.iter().enumerate() {
            let now = (i + 1) as f64 * cfg.eval_period_s;
            let p99 = w.map(|m| m * cfg.p99_slo_s);
            let breaching = p99.is_some_and(|p| p > cfg.p99_slo_s);
            breach_run = if breaching {
                breach_run + 1
            } else if p99.is_none() {
                breach_run
            } else {
                0
            };
            let decision = scaler.observe(now, p99, nodes);
            match decision {
                ScaleDecision::Up => {
                    prop_assert!(nodes < cfg.max_nodes, "Up at max");
                    prop_assert!(
                        breach_run >= cfg.breach_windows,
                        "Up after only {} consecutive breaches", breach_run
                    );
                    nodes += 1;
                }
                ScaleDecision::Down => {
                    prop_assert!(nodes > cfg.min_nodes, "Down at min");
                    prop_assert!(!breaching, "Down on a breaching window");
                    nodes -= 1;
                }
                ScaleDecision::Hold => {}
            }
            if decision != ScaleDecision::Hold {
                if let Some(t) = last_action {
                    prop_assert!(
                        now - t >= cfg.cooldown_s - 1e-12,
                        "action at {now} inside cooldown of action at {t}"
                    );
                }
                last_action = Some(now);
                breach_run = 0;
            }
            prop_assert!((cfg.min_nodes..=cfg.max_nodes).contains(&nodes));
        }
    }
}

/// End-to-end: a diurnal wave over an undersized fleet triggers at least
/// one scale-up at the peak, the fleet stays deterministic, and every
/// request is still accounted for.
#[test]
fn autoscaling_fleet_grows_under_diurnal_load_deterministically() {
    let targets = WorkloadGenerator::new(WorkloadConfig {
        seed: WORKLOAD_SEED,
        scale: 1e-4,
        ..WorkloadConfig::default()
    })
    .targets(96, WORKLOAD_SEED);
    // A slow trough ramping to a hard peak: the peak overloads one node.
    let times = ArrivalProcess::diurnal(ARRIVAL_SEED, 2_000.0, 120_000.0, 0.4).times(targets.len());
    let reqs: Vec<Request> = targets
        .into_iter()
        .zip(times)
        .enumerate()
        .map(|(i, (t, at))| Request::new(i as u64, at, t))
        .collect();
    let config = FleetConfig {
        nodes: 1,
        node: ServeConfig {
            // A large watermark keeps the peak queued instead of shed, so
            // latency (not rejections) carries the overload signal.
            admission_watermark: 4096,
            ..ServeConfig::default()
        },
        autoscale: Some(AutoscalerConfig {
            max_nodes: 4,
            p99_slo_s: 2e-3,
            eval_period_s: 10e-3,
            cooldown_s: 20e-3,
            breach_windows: 2,
            clear_windows: 4,
            scale_down_fraction: 0.4,
            ..AutoscalerConfig::default()
        }),
        ..FleetConfig::default()
    };
    let run = |mut cfg_requests: Vec<Request>| {
        cfg_requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        FleetService::new(config.clone())
            .expect("valid fleet config")
            .run(cfg_requests)
            .expect("autoscaled run succeeds")
    };
    let a = run(reqs.clone());
    assert!(
        a.counters.counter("fleet/scale_ups") >= 1,
        "the diurnal peak must trigger a scale-up"
    );
    assert!(a.peak_nodes > 1, "peak node count must reflect the growth");
    assert_eq!(
        a.offered() as usize,
        reqs.len(),
        "requests lost or duplicated"
    );
    let b = run(reqs);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "autoscaled runs must be seed-stable"
    );
}
