//! Multi-node serving fleet: consistent-hash routing, SLO-driven
//! autoscaling and spot-interruption drain on one virtual clock.
//!
//! The paper's deployment story is many F1 instances serving realignment
//! at once (§VI, the fleet cost model). [`FleetService`] is that tier:
//! `N` service nodes, each owning its own shard pool (homogeneous or
//! per-shape heterogeneous via [`crate::ShardSpec::for_families`]),
//! behind a consistent-hash, shape-aware router with a modeled
//! inter-node hop latency. Everything — arrivals, hops, batch
//! completions, scale decisions, spot interruptions — is an event on the
//! same [`ir_sim::EventQueue`], so a [`FleetReport`] is a pure function
//! of `(FleetConfig, requests)` and two same-seed runs are
//! byte-identical.
//!
//! # The single-pool service is a one-node fleet
//!
//! This module holds the only serving event loop.
//! [`crate::RealignService`] is a one-node fleet with zero hop latency,
//! no autoscaler and no spot profile, and its report is that node's
//! [`ServiceReport`]. On that topology no fleet-only event is ever
//! scheduled: every arrival is ingested inline by node 0, and the fleet
//! counters stay at zero. The golden report digests in `tests/serve.rs`
//! and `tests/shape_routing.rs` pin the node loop's full verdict.
//!
//! # Routing
//!
//! Each active node contributes [`FleetConfig::vnodes`] points to an
//! FNV-hashed ring. A request's id hashes to a ring position; the walk
//! from there returns the first node advertising the request's shape
//! family, falling back to the plain ring owner when no active node
//! serves the family (that node then sheds the request through its own
//! `serve/unroutable` admission path).
//! Draining and dead nodes leave the ring, so only their keyspace moves
//! — the consistent-hash property that keeps rerouting minimal.
//!
//! # Autoscaling
//!
//! [`Autoscaler`] is a pure state machine: every
//! [`AutoscalerConfig::eval_period_s`] the fleet feeds it the window's
//! p99 latency and it answers grow / shrink / hold. Scale-ups need
//! [`AutoscalerConfig::breach_windows`] *consecutive* SLO-violating
//! windows (a single-sample spike never scales), scale-downs need
//! [`AutoscalerConfig::clear_windows`] consecutive windows below the
//! hysteresis fraction of the SLO, and every action starts a cooldown
//! during which the machine holds. Shrinking drains the highest-index
//! active node gracefully: queued requests reroute, in-flight batches
//! finish.
//!
//! # Spot drain
//!
//! With [`FleetConfig::spot`] set, each node draws interruption times
//! from its own seeded [`ir_cloud::InterruptionModel`] stream — the same
//! sampler the `ir-cloud` cost replay uses, so fleet and cost-model
//! draws can never diverge. An interrupted node stops taking traffic and
//! drains: queued requests reroute immediately (`fleet/rerouted`),
//! in-flight batches that can finish inside the grace window do so
//! (`fleet/drained`), the rest are cancelled and rerouted with their
//! elapsed execution discarded (`fleet/lost_work_ms`) — request-level
//! checkpointing, the serving twin of `ir-cloud`'s per-chromosome
//! [`ir_cloud::CheckpointPolicy`]. The last active node is never
//! interrupted, so every admitted request still completes or is shed
//! with a typed rejection.

use ir_cloud::InterruptionModel;
use ir_fpga::ResilienceReport;
use ir_genome::RealignmentTarget;
use ir_sim::{EventQueue, SimTime};
use ir_telemetry::json::escape_json_string;
use ir_telemetry::{PerfCounters, SpanKind, Tracer, Track};
use ir_workloads::ShapeFamily;
use std::fmt::Write as _;

use crate::batcher::{BatchPolicy, FlushVerdict};
use crate::config::{ServeConfig, TenantQuota};
use crate::error::ServeError;
use crate::queue::{Admission, SubmissionQueue};
use crate::request::{Rejection, Request, Response};
use crate::service::ServiceReport;
use crate::shard::Shard;

/// Event priorities at equal timestamps: completions free shards before
/// new arrivals are admitted, and deadline flushes run after both so
/// they see the post-arrival queue state. Fleet-only events sort last,
/// so they never reorder a node's own events.
const PRIO_DONE: u64 = 0;
const PRIO_ARRIVE: u64 = 1;
const PRIO_FLUSH: u64 = 2;
const PRIO_INTERRUPT: u64 = 3;
const PRIO_NODE_DEAD: u64 = 4;
const PRIO_SCALE: u64 = 5;

/// Initial per-request service-time estimate (per node) for retry-after
/// hints, before the first batch completion calibrates the EWMA.
const INITIAL_EST_SERVICE_S: f64 = 100e-6;

/// EWMA weight of the newest per-request service-time observation.
const EST_ALPHA: f64 = 0.3;

/// Spot-interruption faults for the fleet: each node owns one seeded
/// [`InterruptionModel`] stream (`seed + node index`), so interruption
/// times are reproducible and independent of how many nodes exist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotProfile {
    /// Base seed; node `i` draws from `seed + i`.
    pub seed: u64,
    /// Mean interruptions per node-hour (0 disables interruptions while
    /// keeping the drain machinery wired).
    pub interruptions_per_hour: f64,
    /// Grace window after an interruption: in-flight batches completing
    /// within it finish and count as drained; later ones are cancelled
    /// and rerouted.
    pub drain_grace_s: f64,
}

/// SLO-driven autoscaler tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Never shrink below this many active nodes.
    pub min_nodes: usize,
    /// Never grow beyond this many active nodes.
    pub max_nodes: usize,
    /// The p99 latency SLO the fleet scales against.
    pub p99_slo_s: f64,
    /// Seconds between scale evaluations (one telemetry window).
    pub eval_period_s: f64,
    /// Seconds after any scale action during which the machine holds.
    pub cooldown_s: f64,
    /// Consecutive SLO-violating windows required before scaling up —
    /// at least 2 means a single-sample spike never triggers growth.
    pub breach_windows: u32,
    /// Consecutive clear windows (p99 below the hysteresis threshold)
    /// required before scaling down.
    pub clear_windows: u32,
    /// Hysteresis: a window only counts as clear when its p99 is below
    /// `p99_slo_s * scale_down_fraction`.
    pub scale_down_fraction: f64,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 8,
            p99_slo_s: 10e-3,
            eval_period_s: 50e-3,
            cooldown_s: 100e-3,
            breach_windows: 2,
            clear_windows: 4,
            scale_down_fraction: 0.4,
        }
    }
}

impl AutoscalerConfig {
    fn validate(&self) -> Result<(), ServeError> {
        let invalid = |reason: &str| {
            Err(ServeError::InvalidConfig {
                field: "autoscale",
                reason: reason.to_string(),
            })
        };
        if self.min_nodes == 0 {
            return invalid("min_nodes must be at least 1");
        }
        if self.max_nodes < self.min_nodes {
            return invalid("max_nodes must be at least min_nodes");
        }
        if !(self.p99_slo_s > 0.0 && self.p99_slo_s.is_finite()) {
            return invalid("p99_slo_s must be positive and finite");
        }
        if !(self.eval_period_s > 0.0 && self.eval_period_s.is_finite()) {
            return invalid("eval_period_s must be positive and finite");
        }
        if !(self.cooldown_s >= 0.0 && self.cooldown_s.is_finite()) {
            return invalid("cooldown_s must be non-negative and finite");
        }
        if self.breach_windows == 0 || self.clear_windows == 0 {
            return invalid("breach/clear windows must be at least 1");
        }
        if !(0.0..=1.0).contains(&self.scale_down_fraction) {
            return invalid("scale_down_fraction must be in 0..=1");
        }
        Ok(())
    }
}

/// What the autoscaler wants done after observing one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the current node count.
    Hold,
    /// Activate one more node.
    Up,
    /// Drain the highest-index active node.
    Down,
}

/// The pure scale state machine: feed it one telemetry window at a time
/// with [`Autoscaler::observe`] and apply whatever it answers. It holds
/// only streak counters and the last action time, so property tests can
/// drive it directly on synthetic metric sequences.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    breach_streak: u32,
    clear_streak: u32,
    last_action_s: Option<f64>,
}

impl Autoscaler {
    /// A fresh machine with no history.
    pub fn new(cfg: AutoscalerConfig) -> Self {
        Autoscaler {
            cfg,
            breach_streak: 0,
            clear_streak: 0,
            last_action_s: None,
        }
    }

    /// The configuration this machine runs under.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// Observes one evaluation window ending at `now_s` with the
    /// window's p99 latency (`None` for a window with no completions)
    /// and the current active node count; returns the decision.
    ///
    /// Empty windows count toward scale-*down* (an idle fleet should
    /// shrink) but leave the breach streak untouched: under heavy
    /// overload completions arrive in sparse bursts — batches take
    /// longer than an evaluation window — and an empty window between
    /// bursts is evidence of congestion, not recovery.
    ///
    /// Invariants the property tests pin: a decision other than
    /// [`ScaleDecision::Hold`] requires the full breach/clear streak,
    /// respects `min_nodes`/`max_nodes`, and never fires inside the
    /// cooldown window of the previous action.
    pub fn observe(
        &mut self,
        now_s: f64,
        window_p99_s: Option<f64>,
        active_nodes: usize,
    ) -> ScaleDecision {
        match window_p99_s {
            Some(p99) if p99 > self.cfg.p99_slo_s => {
                self.breach_streak += 1;
                self.clear_streak = 0;
            }
            Some(p99) if p99 < self.cfg.p99_slo_s * self.cfg.scale_down_fraction => {
                self.clear_streak += 1;
                self.breach_streak = 0;
            }
            Some(_) => {
                // Inside the hysteresis band: healthy but not idle.
                self.breach_streak = 0;
                self.clear_streak = 0;
            }
            None => {
                self.clear_streak += 1;
            }
        }
        let cooled = self
            .last_action_s
            .is_none_or(|t| now_s - t >= self.cfg.cooldown_s);
        // Any action consumes ALL accumulated evidence: a breach streak
        // must not survive a scale-down (or vice versa) and re-fire on
        // the first window after the cooldown.
        if cooled
            && self.breach_streak >= self.cfg.breach_windows
            && active_nodes < self.cfg.max_nodes
        {
            self.last_action_s = Some(now_s);
            self.breach_streak = 0;
            self.clear_streak = 0;
            return ScaleDecision::Up;
        }
        if cooled
            && self.clear_streak >= self.cfg.clear_windows
            && active_nodes > self.cfg.min_nodes
        {
            self.last_action_s = Some(now_s);
            self.breach_streak = 0;
            self.clear_streak = 0;
            return ScaleDecision::Down;
        }
        ScaleDecision::Hold
    }
}

/// Everything that determines a fleet run besides the traffic itself.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Initial node count.
    pub nodes: usize,
    /// Per-node service configuration (shard pool, batching, admission,
    /// SLO). Every node is built from this template; with fault
    /// injection on, node `i`'s shards offset the fault seed by
    /// `i * shards` so fault streams stay independent across nodes, and
    /// node 0 uses the configured seed unchanged.
    pub node: ServeConfig,
    /// Modeled one-way router→node hop latency. `0` ingests arrivals
    /// inline, which is how [`crate::RealignService`] runs; positive
    /// values delay every ingest and reroute by one hop and count
    /// `fleet/hops`.
    pub hop_latency_s: f64,
    /// Virtual points each active node contributes to the hash ring.
    pub vnodes: usize,
    /// SLO-driven autoscaling; `None` pins the node count.
    pub autoscale: Option<AutoscalerConfig>,
    /// Spot-interruption faults; `None` runs on reliable capacity.
    pub spot: Option<SpotProfile>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 1,
            node: ServeConfig::default(),
            hop_latency_s: 0.0,
            vnodes: 16,
            autoscale: None,
            spot: None,
        }
    }
}

impl FleetConfig {
    /// Checks the configuration for internal consistency (including the
    /// embedded per-node [`ServeConfig`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        let invalid = |field: &'static str, reason: &str| {
            Err(ServeError::InvalidConfig {
                field,
                reason: reason.to_string(),
            })
        };
        self.node.validate()?;
        if self.nodes == 0 {
            return invalid("nodes", "at least one node required");
        }
        if !(self.hop_latency_s >= 0.0 && self.hop_latency_s.is_finite()) {
            return invalid("hop_latency_s", "must be non-negative and finite");
        }
        if self.vnodes == 0 {
            return invalid("vnodes", "at least one virtual ring point required");
        }
        if let Some(auto) = &self.autoscale {
            auto.validate()?;
            if self.nodes < auto.min_nodes || self.nodes > auto.max_nodes {
                return invalid("nodes", "initial node count outside autoscaler min/max");
            }
        }
        if let Some(spot) = &self.spot {
            if !(spot.interruptions_per_hour >= 0.0 && spot.interruptions_per_hour.is_finite()) {
                return invalid("spot", "interruption rate must be non-negative and finite");
            }
            if !(spot.drain_grace_s >= 0.0 && spot.drain_grace_s.is_finite()) {
                return invalid("spot", "drain grace must be non-negative and finite");
            }
        }
        Ok(())
    }
}

/// 64-bit FNV-1a, the repo's standard non-cryptographic hash.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Taking traffic.
    Active,
    /// Off the ring, finishing in-flight work.
    Draining,
    /// Gone (interrupted or descaled).
    Dead,
}

/// A batch in flight on one node shard. Responses are fully stamped at
/// dispatch (completion time is known then) and released at `Done`; the
/// original requests ride along so a drain can reroute a cancelled
/// batch, and the completion and dispatch instants decide
/// drain-vs-cancel and lost work.
#[derive(Debug)]
struct InFlight {
    responses: Vec<Response>,
    requests: Vec<Request>,
    dispatch_s: f64,
    completion_s: f64,
}

/// One service node: its shard pool, per-family submission queues,
/// counters and trace, plus fleet lifecycle. A one-node fleet's only
/// node is the whole single-pool service.
#[derive(Debug)]
struct Node {
    cfg: ServeConfig,
    shards: Vec<Shard>,
    shard_families: Vec<Vec<ShapeFamily>>,
    routable: [bool; ShapeFamily::ALL.len()],
    queues: Vec<SubmissionQueue>,
    tenant_queued: Vec<usize>,
    in_flight: Vec<Option<InFlight>>,
    /// Cancellation guard per shard: a `Done` event delivers only if its
    /// epoch matches (always true without spot drains).
    shard_epoch: Vec<u64>,
    counters: PerfCounters,
    tracer: Tracer,
    responses: Vec<Response>,
    rejections: Vec<Rejection>,
    resilience: ResilienceReport,
    est_service_s: f64,
    batch_seq: u64,
    flush_full: u64,
    flush_deadline: u64,
    scheduled_flushes: Vec<f64>,
    makespan_s: f64,
    state: NodeState,
    born_s: f64,
    died_s: Option<f64>,
    interrupts: Option<InterruptionModel>,
}

impl Node {
    fn new(
        base: &ServeConfig,
        node_idx: usize,
        born_s: f64,
        spot: &Option<SpotProfile>,
    ) -> Result<Self, ServeError> {
        let mut cfg = base.clone();
        if let Some(f) = &mut cfg.faults {
            f.seed = f.seed.wrapping_add((node_idx * base.shards) as u64);
        }
        let shards = (0..cfg.shards)
            .map(|i| Shard::new(i, &cfg).map_err(ServeError::from))
            .collect::<Result<Vec<_>, ServeError>>()?;
        let shard_families: Vec<Vec<ShapeFamily>> =
            shards.iter().map(|s| s.families().to_vec()).collect();
        let mut routable = [false; ShapeFamily::ALL.len()];
        for families in &shard_families {
            for f in families {
                routable[f.index()] = true;
            }
        }
        let queues = ShapeFamily::ALL
            .iter()
            .map(|_| SubmissionQueue::new(cfg.admission_watermark))
            .collect();
        let tenant_queued = vec![0; cfg.tenants.as_ref().map_or(0, Vec::len)];
        let in_flight = (0..cfg.shards).map(|_| None).collect();
        let shard_epoch = vec![0; cfg.shards];
        let interrupts = spot.as_ref().map(|s| {
            InterruptionModel::new(
                s.seed.wrapping_add(node_idx as u64),
                s.interruptions_per_hour,
            )
        });
        Ok(Node {
            cfg,
            shards,
            shard_families,
            routable,
            queues,
            tenant_queued,
            in_flight,
            shard_epoch,
            counters: PerfCounters::default(),
            tracer: Tracer::default(),
            responses: Vec::new(),
            rejections: Vec::new(),
            resilience: ResilienceReport::default(),
            est_service_s: INITIAL_EST_SERVICE_S,
            batch_seq: 0,
            flush_full: 0,
            flush_deadline: 0,
            scheduled_flushes: Vec::new(),
            makespan_s: 0.0,
            state: NodeState::Active,
            born_s,
            died_s: None,
            interrupts,
        })
    }

    /// Admission for one request: shed it as unroutable when no shard
    /// advertises its family, shed it when its tenant is over quota,
    /// otherwise offer it to its family's queue. Returns whether the
    /// request was rejected (resolving it for the fleet's outstanding
    /// count).
    fn ingest(&mut self, req: Request) -> Result<bool, ServeError> {
        let tenant = req.tenant;
        let tenant_quotas: &Option<Vec<TenantQuota>> = &self.cfg.tenants;
        if let Some(quotas) = tenant_quotas {
            if tenant >= quotas.len() {
                return Err(ServeError::UnknownTenant {
                    tenant,
                    tenants: quotas.len(),
                });
            }
        }
        if !self.routable[req.family.index()] {
            // No shard advertises this family; shed immediately rather
            // than queueing forever.
            self.counters.add("serve/unroutable", 1);
            if tenant_quotas.is_some() {
                self.counters
                    .add(&format!("serve/tenant{tenant}/rejected"), 1);
            }
            self.rejections.push(Rejection {
                id: req.id,
                arrival_s: req.arrival_s,
                retry_after_s: self.est_service_s,
            });
            Ok(true)
        } else if tenant_quotas
            .as_ref()
            .is_some_and(|q| self.tenant_queued[tenant] >= q[tenant].max_queued)
        {
            self.counters
                .add(&format!("serve/tenant{tenant}/rejected"), 1);
            self.rejections.push(Rejection {
                id: req.id,
                arrival_s: req.arrival_s,
                retry_after_s: self.est_service_s,
            });
            Ok(true)
        } else {
            let family = req.family.index();
            match self.queues[family].offer(req, self.est_service_s) {
                Admission::Accepted => {
                    if tenant_quotas.is_some() {
                        self.tenant_queued[tenant] += 1;
                        self.counters
                            .add(&format!("serve/tenant{tenant}/accepted"), 1);
                    }
                    Ok(false)
                }
                Admission::Rejected(r) => {
                    if tenant_quotas.is_some() {
                        self.counters
                            .add(&format!("serve/tenant{tenant}/rejected"), 1);
                    }
                    self.rejections.push(r);
                    Ok(true)
                }
            }
        }
    }

    /// Post-event bookkeeping: the queue-depth high-water gauge.
    fn gauge_queue_depth(&mut self) {
        self.counters.gauge_max(
            "serve/queue_depth_hwm",
            self.queues
                .iter()
                .map(|q| q.depth_high_water() as u64)
                .sum(),
        );
    }

    /// Finalizes this node into a [`ServiceReport`]. Tenant-quota and
    /// unroutable-family rejections bypass the queues, so
    /// `serve/rejected` counts the rejection list itself.
    fn into_report(mut self) -> Result<ServiceReport, ServeError> {
        let depth: usize = self.queues.iter().map(SubmissionQueue::depth).sum();
        if depth > 0 {
            return Err(ServeError::UndrainedQueue { depth });
        }
        self.counters.set(
            "serve/accepted",
            self.queues.iter().map(SubmissionQueue::accepted).sum(),
        );
        self.counters
            .set("serve/rejected", self.rejections.len() as u64);
        self.counters
            .set("serve/completed", self.responses.len() as u64);
        self.counters.set("serve/batches", self.batch_seq);
        self.counters.set("serve/flush_full", self.flush_full);
        self.counters
            .set("serve/flush_deadline", self.flush_deadline);
        if self.cfg.faults.is_some() {
            self.resilience.record_into(&mut self.counters);
        }
        Ok(ServiceReport {
            responses: self.responses,
            rejections: self.rejections,
            makespan_s: self.makespan_s,
            batches: self.batch_seq,
            resilience: self.resilience,
            counters: self.counters,
            slo_deadline_s: self.cfg.slo_deadline_s,
            trace: self.tracer.into_trace(),
        })
    }
}

/// Fleet events. `Arrive`, `Flush` and `Done` drive every node; the
/// rest exist only when hops, spot faults or the autoscaler are
/// configured, so a one-node service never sees them.
#[derive(Debug)]
enum Ev {
    /// Request `i` of the submitted stream reaches the router.
    Arrive(usize),
    /// A routed request reaches its node after the hop delay.
    Ingest { node: usize, req: Request },
    /// A drained request re-enters the router (re-routed at delivery,
    /// since topology may have changed during the hop).
    Reroute { req: Request },
    /// Re-evaluate `node`'s batcher (a flush deadline came due).
    Flush { node: usize },
    /// The batch in flight on `node`/`shard` completed (valid only if
    /// `epoch` still matches — a drain cancellation bumps it).
    Done {
        node: usize,
        shard: usize,
        epoch: u64,
    },
    /// The spot market reclaims `node`.
    Interrupt { node: usize },
    /// `node` finished draining and leaves the fleet.
    NodeDead { node: usize },
    /// One autoscaler evaluation window closed.
    ScaleTick,
}

fn rebuild_ring(ring: &mut Vec<(u64, usize)>, nodes: &[Node], vnodes: usize) {
    ring.clear();
    for (i, n) in nodes.iter().enumerate() {
        if n.state == NodeState::Active {
            for v in 0..vnodes {
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&(i as u64).to_le_bytes());
                key[8..].copy_from_slice(&(v as u64).to_le_bytes());
                ring.push((fnv64(&key), i));
            }
        }
    }
    ring.sort_unstable();
}

/// Consistent-hash, shape-aware routing: walk the ring from the
/// request's hash position and take the first node advertising the
/// family; fall back to the plain ring owner (which sheds the request
/// through its `serve/unroutable` path) when no active node serves it.
fn route(
    ring: &[(u64, usize)],
    nodes: &[Node],
    id: u64,
    family: ShapeFamily,
) -> Result<usize, ServeError> {
    if ring.is_empty() {
        return Err(ServeError::NoActiveNodes);
    }
    let h = fnv64(&id.to_le_bytes());
    let start = ring.partition_point(|&(p, _)| p < h) % ring.len();
    for k in 0..ring.len() {
        let (_, node) = ring[(start + k) % ring.len()];
        if nodes[node].routable[family.index()] {
            return Ok(node);
        }
    }
    Ok(ring[start].1)
}

impl Node {
    /// The dispatch loop: pair idle shards with ready family batches,
    /// pushing `Done` events tagged with this node and the shard's
    /// current epoch. The scan restarts from shard 0 after every
    /// dispatch, and each shard takes the first of its advertised
    /// families whose queue is ready, so batches are family-pure and
    /// only land on shards whose geometry holds them.
    fn dispatch(
        &mut self,
        node_idx: usize,
        events: &mut EventQueue<Ev>,
        now: f64,
    ) -> Result<(), ServeError> {
        let policy = BatchPolicy {
            max_batch: self.cfg.max_batch,
            flush_deadline_s: self.cfg.flush_deadline_s,
        };
        let Node {
            cfg,
            shards,
            shard_families,
            queues,
            tenant_queued,
            in_flight,
            shard_epoch,
            counters,
            tracer,
            resilience,
            est_service_s,
            batch_seq,
            flush_full,
            flush_deadline,
            scheduled_flushes,
            ..
        } = self;
        let tenant_quotas = &cfg.tenants;
        'dispatch: loop {
            for shard_idx in 0..in_flight.len() {
                if in_flight[shard_idx].is_some() {
                    continue;
                }
                for &family in &shard_families[shard_idx] {
                    let queue = &mut queues[family.index()];
                    let verdict = policy.verdict(queue, now);
                    let take = match verdict {
                        FlushVerdict::Full => {
                            *flush_full += 1;
                            cfg.max_batch
                        }
                        FlushVerdict::DeadlineExpired => {
                            *flush_deadline += 1;
                            queue.depth()
                        }
                        FlushVerdict::Wait(deadline) => {
                            if !scheduled_flushes.contains(&deadline) {
                                events.push(
                                    SimTime::from_seconds(deadline),
                                    PRIO_FLUSH,
                                    Ev::Flush { node: node_idx },
                                );
                                scheduled_flushes.push(deadline);
                            }
                            continue;
                        }
                        FlushVerdict::Idle => continue,
                    };
                    let batch = queue.take(take);
                    // When the batch became ready for dispatch: the
                    // arrival that filled it, or the flush-deadline
                    // expiry of its oldest request for a partial flush.
                    // A busy pool can dispatch later than either instant
                    // (then the gap is shard-queue wait, not
                    // batch-formation wait), and late stragglers can
                    // arrive after the oldest request's deadline — the
                    // clamp keeps ready inside `[latest batch arrival,
                    // now]` in both cases.
                    let latest_arrival = batch
                        .iter()
                        .map(|r| r.arrival_s)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let ready = match verdict {
                        FlushVerdict::DeadlineExpired => {
                            (batch[0].arrival_s + cfg.flush_deadline_s).clamp(latest_arrival, now)
                        }
                        _ => latest_arrival.min(now),
                    };
                    let targets: Vec<RealignmentTarget> =
                        batch.iter().map(|req| req.target.clone()).collect();
                    let outcome = shards[shard_idx].run_batch(&targets)?;
                    if let Some(report) = &outcome.resilience {
                        resilience.absorb(report);
                    }
                    let completion = now + outcome.wall_time_s;
                    // Calibrate the retry-after estimate from real
                    // service time, amortized over the batch.
                    let per_req = outcome.wall_time_s / targets.len() as f64;
                    *est_service_s = (1.0 - EST_ALPHA) * *est_service_s + EST_ALPHA * per_req;
                    counters.observe("serve/batch_occupancy", targets.len() as u64);
                    counters.add(&PerfCounters::key("serve", Some(shard_idx), "batches"), 1);
                    counters.add(
                        &PerfCounters::key("serve", Some(shard_idx), "requests"),
                        targets.len() as u64,
                    );
                    let stamped: Vec<Response> = batch
                        .iter()
                        .zip(&outcome.results)
                        .map(|(req, &(best_consensus, realigned))| {
                            let latency = completion - req.arrival_s;
                            counters.observe("serve/latency_us", (latency * 1e6) as u64);
                            // The request-journey span breakdown, in µs:
                            // admission (structurally zero today) → batch
                            // formation → shard queue → execution = total.
                            counters.observe("serve/span_admission_us", 0);
                            counters.observe(
                                "serve/span_batch_wait_us",
                                ((ready - req.arrival_s) * 1e6) as u64,
                            );
                            counters
                                .observe("serve/span_shard_wait_us", ((now - ready) * 1e6) as u64);
                            counters
                                .observe("serve/span_exec_us", ((completion - now) * 1e6) as u64);
                            counters.observe("serve/span_total_us", (latency * 1e6) as u64);
                            if latency <= cfg.slo_deadline_s {
                                counters.add("serve/slo_met", 1);
                            } else {
                                counters.add("serve/slo_missed", 1);
                            }
                            if tenant_quotas.is_some() {
                                let t = req.tenant;
                                tenant_queued[t] -= 1;
                                counters.add(&format!("serve/tenant{t}/completed"), 1);
                                counters.observe(
                                    &format!("serve/tenant{t}/latency_us"),
                                    (latency * 1e6) as u64,
                                );
                                if latency <= cfg.slo_deadline_s {
                                    counters.add(&format!("serve/tenant{t}/slo_met"), 1);
                                } else {
                                    counters.add(&format!("serve/tenant{t}/slo_missed"), 1);
                                }
                            }
                            Response {
                                id: req.id,
                                arrival_s: req.arrival_s,
                                ready_s: ready,
                                dispatch_s: now,
                                completion_s: completion,
                                shard: shard_idx,
                                batch: *batch_seq,
                                batch_size: targets.len(),
                                best_consensus,
                                realigned,
                                family,
                                tenant: req.tenant,
                            }
                        })
                        .collect();
                    tracer.span_args(
                        Track::Shard(shard_idx),
                        SpanKind::Compute,
                        &format!("batch {batch_seq}"),
                        None,
                        now,
                        completion,
                        &[("batch", *batch_seq), ("requests", targets.len() as u64)],
                    );
                    in_flight[shard_idx] = Some(InFlight {
                        responses: stamped,
                        requests: batch,
                        dispatch_s: now,
                        completion_s: completion,
                    });
                    events.push(
                        SimTime::from_seconds(completion),
                        PRIO_DONE,
                        Ev::Done {
                            node: node_idx,
                            shard: shard_idx,
                            epoch: shard_epoch[shard_idx],
                        },
                    );
                    *batch_seq += 1;
                    continue 'dispatch;
                }
            }
            break;
        }
        Ok(())
    }

    /// Takes this node off the ring and unwinds its queued and in-flight
    /// work. Queued requests always reroute; in-flight batches completing
    /// by `cancel_after` (`None` = all of them, the graceful scale-down
    /// drain) finish and count as drained, later ones are cancelled with
    /// their elapsed execution discarded. Returns the virtual time the
    /// drain is over.
    fn drain(
        &mut self,
        now: f64,
        cancel_after: Option<f64>,
        hop_latency_s: f64,
        events: &mut EventQueue<Ev>,
        fleet: &mut PerfCounters,
    ) -> f64 {
        self.state = NodeState::Draining;
        for qi in 0..self.queues.len() {
            let depth = self.queues[qi].depth();
            if depth == 0 {
                continue;
            }
            for req in self.queues[qi].take(depth) {
                if self.cfg.tenants.is_some() {
                    self.tenant_queued[req.tenant] -= 1;
                }
                fleet.add("fleet/rerouted", 1);
                events.push(
                    SimTime::from_seconds(now + hop_latency_s),
                    PRIO_ARRIVE,
                    Ev::Reroute { req },
                );
            }
        }
        let mut drain_end = cancel_after.unwrap_or(now);
        for shard in 0..self.in_flight.len() {
            let keep = match &self.in_flight[shard] {
                Some(fl) => cancel_after.is_none_or(|t| fl.completion_s <= t),
                None => continue,
            };
            if keep {
                let fl = self.in_flight[shard].as_ref().expect("checked above");
                fleet.add("fleet/drained", fl.responses.len() as u64);
                drain_end = drain_end.max(fl.completion_s);
            } else {
                let fl = self.in_flight[shard].take().expect("checked above");
                self.shard_epoch[shard] += 1;
                fleet.add(
                    "fleet/lost_work_ms",
                    ((now - fl.dispatch_s) * 1e3).round() as u64,
                );
                for req in fl.requests {
                    fleet.add("fleet/rerouted", 1);
                    events.push(
                        SimTime::from_seconds(now + hop_latency_s),
                        PRIO_ARRIVE,
                        Ev::Reroute { req },
                    );
                }
            }
        }
        drain_end
    }
}

/// The multi-node serving fleet.
///
/// [`FleetService::run`] replays a request stream through the router and
/// every node's admission/batching/shard pipeline in virtual time; the
/// report is a pure function of `(FleetConfig, requests)`.
#[derive(Debug)]
pub struct FleetService {
    config: FleetConfig,
}

impl FleetService {
    /// Validates the configuration and checks that a node's shard pool
    /// can be built (every node shares the one template).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for an inconsistent config, or
    /// [`ServeError::Backend`] for an impossible FPGA configuration.
    pub fn new(config: FleetConfig) -> Result<Self, ServeError> {
        config.validate()?;
        Node::new(&config.node, 0, 0.0, &None)?;
        Ok(FleetService { config })
    }

    /// The configuration this fleet was built from.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Serves a request stream to completion across the fleet. Every run
    /// builds its nodes afresh, so repeated runs are identical.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnsortedArrivals`] for an out-of-order stream; the
    /// remaining variants report event-loop invariant violations as
    /// values (the `ir-fuzz` harness treats any of them as divergence).
    pub fn run(&mut self, requests: Vec<Request>) -> Result<FleetReport, ServeError> {
        if let Some(index) = requests
            .windows(2)
            .position(|w| w[0].arrival_s > w[1].arrival_s)
        {
            return Err(ServeError::UnsortedArrivals { index: index + 1 });
        }
        let cfg = self.config.clone();
        let hop = cfg.hop_latency_s;
        let mut nodes: Vec<Node> = (0..cfg.nodes)
            .map(|i| Node::new(&cfg.node, i, 0.0, &cfg.spot))
            .collect::<Result<_, _>>()?;
        let mut fleet = PerfCounters::default();
        let mut outstanding = requests.len() as u64;
        let mut events: EventQueue<Ev> = EventQueue::new();
        let mut stream: Vec<Option<Request>> = requests.into_iter().map(Some).collect();
        for (i, req) in stream.iter().enumerate() {
            if let Some(req) = req.as_ref() {
                events.push(
                    SimTime::from_seconds(req.arrival_s),
                    PRIO_ARRIVE,
                    Ev::Arrive(i),
                );
            }
        }
        if cfg.spot.is_some() {
            for (i, node) in nodes.iter_mut().enumerate() {
                let gap = node
                    .interrupts
                    .as_mut()
                    .expect("spot nodes carry a model")
                    .next_gap_s();
                if gap.is_finite() {
                    events.push(
                        SimTime::from_seconds(gap),
                        PRIO_INTERRUPT,
                        Ev::Interrupt { node: i },
                    );
                }
            }
        }
        let mut scaler = cfg.autoscale.map(Autoscaler::new);
        if let Some(auto) = &cfg.autoscale {
            events.push(
                SimTime::from_seconds(auto.eval_period_s),
                PRIO_SCALE,
                Ev::ScaleTick,
            );
        }
        let mut ring: Vec<(u64, usize)> = Vec::new();
        rebuild_ring(&mut ring, &nodes, cfg.vnodes);
        // Completion latencies of the current autoscaler window (left
        // empty without an autoscaler).
        let mut window_lat: Vec<f64> = Vec::new();
        let active_count = |nodes: &[Node]| {
            nodes
                .iter()
                .filter(|n| n.state == NodeState::Active)
                .count()
        };
        let mut peak_nodes = active_count(&nodes);

        while let Some(ev) = events.pop() {
            let now = ev.time.seconds();
            // The node whose dispatch loop and queue gauge must run
            // after this event.
            let mut touched: Option<usize> = None;
            match ev.msg {
                Ev::Arrive(i) => {
                    let req = stream[i]
                        .take()
                        .ok_or(ServeError::DuplicateArrival { index: i })?;
                    let node = route(&ring, &nodes, req.id, req.family)?;
                    if hop > 0.0 {
                        fleet.add("fleet/hops", 1);
                        events.push(
                            SimTime::from_seconds(now + hop),
                            PRIO_ARRIVE,
                            Ev::Ingest { node, req },
                        );
                    } else {
                        if nodes[node].ingest(req)? {
                            outstanding -= 1;
                        }
                        touched = Some(node);
                    }
                }
                Ev::Ingest { node, req } => {
                    // Topology may have moved during the hop: a node
                    // that started draining re-routes at delivery.
                    let node = if nodes[node].state == NodeState::Active {
                        node
                    } else {
                        fleet.add("fleet/rerouted", 1);
                        route(&ring, &nodes, req.id, req.family)?
                    };
                    if nodes[node].ingest(req)? {
                        outstanding -= 1;
                    }
                    touched = Some(node);
                }
                Ev::Reroute { req } => {
                    let node = route(&ring, &nodes, req.id, req.family)?;
                    if nodes[node].ingest(req)? {
                        outstanding -= 1;
                    }
                    touched = Some(node);
                }
                Ev::Flush { node } => {
                    if let Some(i) = nodes[node].scheduled_flushes.iter().position(|&d| d == now) {
                        nodes[node].scheduled_flushes.remove(i);
                    }
                    touched = Some(node);
                }
                Ev::Done { node, shard, epoch } => {
                    if nodes[node].shard_epoch[shard] != epoch {
                        // Superseded by a drain cancellation; the live
                        // copies of these requests were rerouted.
                        continue;
                    }
                    let fl = nodes[node].in_flight[shard]
                        .take()
                        .ok_or(ServeError::ShardNotInFlight { shard })?;
                    nodes[node].makespan_s = nodes[node].makespan_s.max(now);
                    outstanding -= fl.responses.len() as u64;
                    if cfg.autoscale.is_some() {
                        window_lat.extend(fl.responses.iter().map(Response::latency_s));
                    }
                    nodes[node].responses.extend(fl.responses);
                    touched = Some(node);
                }
                Ev::Interrupt { node } => {
                    if nodes[node].state != NodeState::Active {
                        continue;
                    }
                    if active_count(&nodes) <= 1 {
                        // Never reclaim the last active node; the market
                        // tries again later.
                        fleet.add("fleet/interruptions_skipped", 1);
                        if outstanding > 0 {
                            let gap = nodes[node]
                                .interrupts
                                .as_mut()
                                .expect("spot nodes carry a model")
                                .next_gap_s();
                            if gap.is_finite() {
                                events.push(
                                    SimTime::from_seconds(now + gap),
                                    PRIO_INTERRUPT,
                                    Ev::Interrupt { node },
                                );
                            }
                        }
                    } else {
                        fleet.add("fleet/interruptions", 1);
                        let grace = cfg
                            .spot
                            .as_ref()
                            .expect("interrupts imply spot")
                            .drain_grace_s;
                        nodes[node].drain(now, Some(now + grace), hop, &mut events, &mut fleet);
                        rebuild_ring(&mut ring, &nodes, cfg.vnodes);
                        events.push(
                            SimTime::from_seconds(now + grace),
                            PRIO_NODE_DEAD,
                            Ev::NodeDead { node },
                        );
                    }
                }
                Ev::NodeDead { node } => {
                    nodes[node].state = NodeState::Dead;
                    nodes[node].died_s = Some(now);
                }
                Ev::ScaleTick => {
                    let auto = cfg.autoscale.as_ref().expect("tick implies autoscale");
                    let p99 = if window_lat.is_empty() {
                        None
                    } else {
                        let mut lat = std::mem::take(&mut window_lat);
                        lat.sort_by(f64::total_cmp);
                        let rank = (0.99 * (lat.len() - 1) as f64).round() as usize;
                        Some(lat[rank])
                    };
                    window_lat.clear();
                    let active = active_count(&nodes);
                    match scaler
                        .as_mut()
                        .expect("tick implies autoscaler")
                        .observe(now, p99, active)
                    {
                        ScaleDecision::Up => {
                            let idx = nodes.len();
                            let mut node = Node::new(&cfg.node, idx, now, &cfg.spot)?;
                            if cfg.spot.is_some() && outstanding > 0 {
                                let gap = node
                                    .interrupts
                                    .as_mut()
                                    .expect("spot nodes carry a model")
                                    .next_gap_s();
                                if gap.is_finite() {
                                    events.push(
                                        SimTime::from_seconds(now + gap),
                                        PRIO_INTERRUPT,
                                        Ev::Interrupt { node: idx },
                                    );
                                }
                            }
                            nodes.push(node);
                            fleet.add("fleet/scale_ups", 1);
                            rebuild_ring(&mut ring, &nodes, cfg.vnodes);
                            peak_nodes = peak_nodes.max(active_count(&nodes));
                        }
                        ScaleDecision::Down => {
                            let victim = nodes
                                .iter()
                                .rposition(|n| n.state == NodeState::Active)
                                .ok_or(ServeError::NoActiveNodes)?;
                            fleet.add("fleet/scale_downs", 1);
                            let end = nodes[victim].drain(now, None, hop, &mut events, &mut fleet);
                            rebuild_ring(&mut ring, &nodes, cfg.vnodes);
                            events.push(
                                SimTime::from_seconds(end),
                                PRIO_NODE_DEAD,
                                Ev::NodeDead { node: victim },
                            );
                        }
                        ScaleDecision::Hold => {}
                    }
                    if outstanding > 0 {
                        events.push(
                            SimTime::from_seconds(now + auto.eval_period_s),
                            PRIO_SCALE,
                            Ev::ScaleTick,
                        );
                    }
                }
            }
            if let Some(k) = touched {
                if nodes[k].state == NodeState::Active {
                    nodes[k].dispatch(k, &mut events, now)?;
                }
                nodes[k].gauge_queue_depth();
            }
        }

        let makespan_s = nodes.iter().map(|n| n.makespan_s).fold(0.0, f64::max);
        let node_active_s: Vec<f64> = nodes
            .iter()
            .map(|n| n.died_s.unwrap_or(makespan_s.max(n.born_s)) - n.born_s)
            .collect();
        fleet.set("fleet/nodes_final", active_count(&nodes) as u64);
        fleet.gauge_max("fleet/peak_nodes", peak_nodes as u64);
        let node_reports = nodes
            .into_iter()
            .map(Node::into_report)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FleetReport {
            node_reports,
            counters: fleet,
            makespan_s,
            node_active_s,
            peak_nodes,
            slo_deadline_s: cfg.node.slo_deadline_s,
        })
    }
}

/// Everything one fleet run produced.
#[derive(Debug)]
pub struct FleetReport {
    /// One [`ServiceReport`] per node that ever existed, in node-index
    /// order (autoscaled nodes append after the initial set).
    pub node_reports: Vec<ServiceReport>,
    /// Fleet-level counters: `fleet/rerouted`, `fleet/drained`,
    /// `fleet/lost_work_ms`, `fleet/interruptions`,
    /// `fleet/interruptions_skipped`, `fleet/scale_ups`,
    /// `fleet/scale_downs`, `fleet/hops`, `fleet/nodes_final` and the
    /// `fleet/peak_nodes` gauge.
    pub counters: PerfCounters,
    /// Virtual time of the last batch completion anywhere in the fleet.
    pub makespan_s: f64,
    /// Seconds each node was alive (birth to death, or to fleet makespan
    /// for survivors) — the billing basis for the cost model.
    pub node_active_s: Vec<f64>,
    /// Most nodes simultaneously active at any point in the run.
    pub peak_nodes: usize,
    /// The latency SLO every node was judged against.
    pub slo_deadline_s: f64,
}

impl FleetReport {
    /// Completed requests across the fleet.
    pub fn completed(&self) -> u64 {
        self.node_reports.iter().map(ServiceReport::completed).sum()
    }

    /// Requests offered = completed + rejected.
    pub fn offered(&self) -> u64 {
        self.completed() + self.rejected()
    }

    /// Admission rejections across the fleet.
    pub fn rejected(&self) -> u64 {
        self.node_reports
            .iter()
            .map(|r| r.rejections.len() as u64)
            .sum()
    }

    /// Batches dispatched across the fleet (cancelled batches excluded —
    /// their requests complete in a rerouted batch instead).
    pub fn batches(&self) -> u64 {
        self.node_reports.iter().map(|r| r.batches).sum()
    }

    /// Completed requests per virtual second of fleet makespan.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.completed() as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// Latency percentile in seconds over every completed response in
    /// the fleet (`p` in 0..=100): the sorted latency at rank
    /// `round(p / 100 · (n − 1))`, counting from 0.
    ///
    /// # Errors
    ///
    /// [`ServeError::PercentileOutOfRange`] for `p` outside `0..=100`,
    /// [`ServeError::NoResponses`] if nothing completed anywhere.
    pub fn latency_percentile_s(&self, p: f64) -> Result<f64, ServeError> {
        if !(0.0..=100.0).contains(&p) {
            return Err(ServeError::PercentileOutOfRange { p });
        }
        let mut lat: Vec<f64> = self
            .node_reports
            .iter()
            .flat_map(|r| r.responses.iter().map(Response::latency_s))
            .collect();
        if lat.is_empty() {
            return Err(ServeError::NoResponses);
        }
        lat.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * (lat.len() - 1) as f64).round() as usize;
        Ok(lat[rank])
    }

    /// Fraction of completed requests that met the latency SLO; 1.0 for
    /// an empty run. Computed from the responses themselves rather than
    /// the per-node `serve/slo_*` counters: a batch cancelled mid-drain
    /// leaves its dispatch-time counter observations behind on the dying
    /// node, but its requests' *real* latencies live in the rerouted
    /// responses.
    pub fn slo_attainment(&self) -> f64 {
        let mut met = 0u64;
        let mut total = 0u64;
        for r in &self.node_reports {
            for resp in &r.responses {
                total += 1;
                if resp.latency_s() <= self.slo_deadline_s {
                    met += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            met as f64 / total as f64
        }
    }

    /// Every response in the fleet, sorted by request id — the order the
    /// routing-invariance tests compare across topologies.
    pub fn responses_by_id(&self) -> Vec<&Response> {
        let mut sorted: Vec<&Response> = self
            .node_reports
            .iter()
            .flat_map(|r| r.responses.iter())
            .collect();
        sorted.sort_by_key(|r| r.id);
        sorted
    }

    /// Total node-seconds billed (sum of per-node active time).
    pub fn node_seconds(&self) -> f64 {
        self.node_active_s.iter().sum()
    }

    /// Fleet run cost in USD: every node-second billed at the paper's
    /// f1.2xlarge spot-market rate (§V-B — EC2 pricing as TCO proxy).
    pub fn cost_usd(&self) -> f64 {
        ir_cloud::run_cost_usd(&ir_cloud::Instance::f1_2xlarge(), self.node_seconds())
    }

    /// The Figure 9 cost model extended to the fleet: dollars per million
    /// completed realignment targets (0 when nothing completed, keeping
    /// the JSON export finite).
    pub fn cost_per_million_targets_usd(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            0.0
        } else {
            self.cost_usd() * 1e6 / completed as f64
        }
    }

    /// Structured JSON export: fleet headline metrics, the cost model,
    /// every fleet counter and a per-node summary, as one deterministic
    /// document (`ir-cli serve --fleet N --json FILE` writes this).
    pub fn to_json(&self) -> String {
        let pctl = |p: f64| self.latency_percentile_s(p).unwrap_or(0.0) * 1e6;
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"nodes\": {},", self.node_reports.len());
        let _ = writeln!(out, "  \"peak_nodes\": {},", self.peak_nodes);
        let _ = writeln!(out, "  \"completed\": {},", self.completed());
        let _ = writeln!(out, "  \"rejected\": {},", self.rejected());
        let _ = writeln!(out, "  \"batches\": {},", self.batches());
        let _ = writeln!(out, "  \"makespan_s\": {},", self.makespan_s);
        let _ = writeln!(out, "  \"throughput_rps\": {},", self.throughput_rps());
        let _ = writeln!(out, "  \"latency_p50_us\": {},", pctl(50.0));
        let _ = writeln!(out, "  \"latency_p95_us\": {},", pctl(95.0));
        let _ = writeln!(out, "  \"latency_p99_us\": {},", pctl(99.0));
        let _ = writeln!(out, "  \"slo_deadline_s\": {},", self.slo_deadline_s);
        let _ = writeln!(out, "  \"slo_attainment\": {},", self.slo_attainment());
        let _ = writeln!(out, "  \"node_seconds\": {},", self.node_seconds());
        let _ = writeln!(out, "  \"cost_usd\": {},", self.cost_usd());
        let _ = writeln!(
            out,
            "  \"cost_per_million_targets_usd\": {},",
            self.cost_per_million_targets_usd()
        );
        out.push_str("  \"counters\": {\n");
        let mut first = true;
        for (k, v) in self.counters.counters() {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            let _ = write!(out, "    {}: {v}", escape_json_string(k));
        }
        out.push_str("\n  },\n  \"per_node\": [\n");
        for (i, r) in self.node_reports.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"node\": {i}, \"completed\": {}, \"rejected\": {}, \
                 \"batches\": {}, \"makespan_s\": {}, \"active_s\": {}}}",
                r.completed(),
                r.rejections.len(),
                r.batches,
                r.makespan_s,
                self.node_active_s[i],
            );
            out.push_str(if i + 1 < self.node_reports.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}
