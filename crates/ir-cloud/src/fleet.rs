//! Fleet deployment: scaling the sea of accelerators across instances.
//!
//! The paper's motivation is immense-scale genomics — up to a billion
//! genomes sequenced by 2025. One F1 instance realigns one genome's
//! chromosomes 1–22 in ~31 minutes; this module sizes a fleet of such
//! instances against a target genome throughput and prices it, the
//! capacity-planning exercise an FPGAs-as-a-service operator would run.
//!
//! It also models the cheap-but-flaky way that fleet actually gets
//! bought: spot capacity. [`SpotMarket`] interrupts instances with
//! Poisson arrivals; [`simulate_spot_schedule`] replays a
//! [`JobSchedule`] under those interruptions with or without
//! per-chromosome checkpointing and reports how much makespan and paid
//! instance time inflate — the host-side twin of the on-fabric fault
//! model in `ir-fpga`.

use ir_sim::{EventQueue, SimTime};
use ir_telemetry::{SpanKind, Telemetry, Track};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::cost::run_cost_usd;
use crate::instances::Instance;

/// A sizing request: how many genomes per day the fleet must sustain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FleetSizing {
    /// Genomes to process per day.
    pub genomes_per_day: f64,
    /// Wall-clock seconds one instance needs per genome.
    pub seconds_per_genome: f64,
}

/// A sized and priced fleet.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetPlan {
    /// Instance type used.
    pub instance: Instance,
    /// Instances required (ceiling of the fractional requirement).
    pub instances: usize,
    /// Cost per genome in dollars.
    pub cost_per_genome_usd: f64,
    /// Total fleet cost per day in dollars, assuming full utilization.
    pub cost_per_day_usd: f64,
}

impl FleetSizing {
    /// Sizes a fleet of `instance`s for this demand.
    ///
    /// # Panics
    ///
    /// Panics if either field is non-positive.
    pub fn plan(&self, instance: Instance) -> FleetPlan {
        assert!(self.genomes_per_day > 0.0, "demand must be positive");
        assert!(
            self.seconds_per_genome > 0.0,
            "per-genome time must be positive"
        );
        let genomes_per_instance_day = 86_400.0 / self.seconds_per_genome;
        let instances = (self.genomes_per_day / genomes_per_instance_day).ceil() as usize;
        let cost_per_genome_usd = run_cost_usd(&instance, self.seconds_per_genome);
        let cost_per_day_usd = cost_per_genome_usd * self.genomes_per_day;
        FleetPlan {
            instance,
            instances: instances.max(1),
            cost_per_genome_usd,
            cost_per_day_usd,
        }
    }
}

/// A concrete assignment of jobs (e.g. per-chromosome runs) to instances.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSchedule {
    /// Wall-clock seconds until the last instance finishes.
    pub makespan_s: f64,
    /// `assignments[j]` is the instance job `j` runs on.
    pub assignments: Vec<usize>,
    /// Busy seconds per instance.
    pub instance_busy_s: Vec<f64>,
}

impl JobSchedule {
    /// Mean instance utilization over the makespan. `0.0` for degenerate
    /// schedules (no instances, no work, or an infinite makespan).
    pub fn utilization(&self) -> f64 {
        if self.makespan_s == 0.0 || !self.makespan_s.is_finite() || self.instance_busy_s.is_empty()
        {
            return 0.0;
        }
        self.instance_busy_s.iter().sum::<f64>()
            / (self.makespan_s * self.instance_busy_s.len() as f64)
    }

    /// Whether this is the degenerate zero-instance plan for a non-empty
    /// job set (see [`schedule_jobs`]).
    pub fn is_degenerate(&self) -> bool {
        self.instance_busy_s.is_empty() && !self.makespan_s.is_finite()
    }
}

/// Schedules independent jobs across `instances` identical machines with
/// the longest-processing-time greedy rule — how a driver spreads the 22
/// chromosome runs over a small F1 fleet.
///
/// With `instances == 0` the result is the explicit degenerate plan: no
/// assignments, no busy vector, and a makespan of `0.0` when there is no
/// work or `f64::INFINITY` when there is (work that no machine exists to
/// run never finishes). Callers that treat zero instances as a bug can
/// check [`JobSchedule::is_degenerate`].
///
/// # Panics
///
/// Panics if any duration is negative.
pub fn schedule_jobs(durations_s: &[f64], instances: usize) -> JobSchedule {
    assert!(
        durations_s.iter().all(|&d| d >= 0.0),
        "durations must be non-negative"
    );
    if instances == 0 {
        return JobSchedule {
            makespan_s: if durations_s.is_empty() {
                0.0
            } else {
                f64::INFINITY
            },
            assignments: Vec::new(),
            instance_busy_s: Vec::new(),
        };
    }
    let mut order: Vec<usize> = (0..durations_s.len()).collect();
    order.sort_by(|&a, &b| durations_s[b].total_cmp(&durations_s[a]));

    let mut busy = vec![0.0f64; instances];
    let mut assignments = vec![0usize; durations_s.len()];
    for job in order {
        let (instance, _) = busy
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one instance");
        assignments[job] = instance;
        busy[instance] += durations_s[job];
    }
    let makespan_s = busy.iter().cloned().fold(0.0, f64::max);
    JobSchedule {
        makespan_s,
        assignments,
        instance_busy_s: busy,
    }
}

/// Spot-market conditions for running the fleet on interruptible
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpotMarket {
    /// Mean interruptions per instance-hour (Poisson arrivals, so
    /// interarrival times are exponential).
    pub interruptions_per_hour: f64,
    /// Seconds to obtain a replacement instance and reload the AFI after
    /// an interruption.
    pub restart_overhead_s: f64,
    /// Spot price as a fraction of the on-demand price (AWS F1 spot
    /// historically clears around a third of on-demand).
    pub price_fraction: f64,
}

impl SpotMarket {
    /// A quiet market: roughly one interruption per instance-day.
    pub fn calm() -> Self {
        SpotMarket {
            interruptions_per_hour: 1.0 / 24.0,
            restart_overhead_s: 180.0,
            price_fraction: 0.3,
        }
    }

    /// A churning market: about one interruption per instance-hour.
    pub fn volatile() -> Self {
        SpotMarket {
            interruptions_per_hour: 1.0,
            ..SpotMarket::calm()
        }
    }
}

/// What survives a spot interruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub enum CheckpointPolicy {
    /// Nothing persists: the replacement instance redoes every
    /// chromosome assigned to it from scratch.
    None,
    /// Completed chromosomes are checkpointed to object storage; only
    /// the in-flight chromosome is redone.
    #[default]
    PerChromosome,
}

/// Outcome of replaying a [`JobSchedule`] on spot capacity.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpotRun {
    /// Wall-clock seconds until the last instance finishes, including
    /// redone work and restart overheads.
    pub makespan_s: f64,
    /// Interruptions suffered across the fleet.
    pub interruptions: u64,
    /// Compute seconds discarded and redone because of interruptions.
    pub lost_work_s: f64,
    /// Restart-overhead seconds paid across the fleet.
    pub overhead_s: f64,
    /// Total instance-seconds billed (active time per instance, summed).
    pub paid_instance_s: f64,
    /// Makespan relative to the interruption-free schedule (`>= 1`).
    pub makespan_inflation: f64,
    /// Billed instance time relative to the interruption-free work total
    /// (`>= 1`) — how much extra capacity interruptions make you buy.
    pub cost_inflation: f64,
}

impl SpotRun {
    /// Spot bill relative to running the same work on on-demand
    /// capacity: values below `1.0` mean spot is still the cheaper buy
    /// despite the redone work.
    pub fn cost_vs_on_demand(&self, market: &SpotMarket) -> f64 {
        self.cost_inflation * market.price_fraction
    }
}

/// One seeded stream of spot-interruption interarrival gaps.
///
/// Both the fleet cost replay here and the serving fleet in `ir-serve`
/// consume spot interruptions; this model is the single source of those
/// draws so the two simulations can never diverge on sampling details.
/// Gaps are exponential with the market's per-second rate, drawn by
/// inverse-CDF from a [`StdRng`] — the same scheme `ir-workloads` uses
/// for Poisson arrivals. A zero rate yields [`f64::INFINITY`] without
/// consuming a draw, so a calm stream stays bit-compatible with code
/// that never sampled at all.
#[derive(Debug, Clone)]
pub struct InterruptionModel {
    rng: StdRng,
    rate_per_s: f64,
}

impl InterruptionModel {
    /// A stream drawing exponential gaps at `interruptions_per_hour`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or non-finite.
    pub fn new(seed: u64, interruptions_per_hour: f64) -> Self {
        assert!(
            interruptions_per_hour >= 0.0 && interruptions_per_hour.is_finite(),
            "interruption rate must be non-negative and finite"
        );
        InterruptionModel {
            rng: StdRng::seed_from_u64(seed),
            rate_per_s: interruptions_per_hour / 3600.0,
        }
    }

    /// A stream matching `market`'s interruption rate.
    pub fn from_market(seed: u64, market: &SpotMarket) -> Self {
        InterruptionModel::new(seed, market.interruptions_per_hour)
    }

    /// The stream's rate in interruptions per second.
    pub fn rate_per_s(&self) -> f64 {
        self.rate_per_s
    }

    /// Seconds until the next interruption. [`f64::INFINITY`] (with no
    /// RNG draw) when the rate is zero.
    pub fn next_gap_s(&mut self) -> f64 {
        if self.rate_per_s > 0.0 {
            let u: f64 = self.rng.random();
            -(1.0 - u).ln() / self.rate_per_s
        } else {
            f64::INFINITY
        }
    }
}

/// Spot-replay events on one instance's [`EventQueue`]. A job completion
/// scheduled for the same instant as an interruption wins the tie
/// (checkpoint-then-interrupt), which the queue encodes as a lower
/// priority; completions scheduled before an interruption landed are
/// invalidated by bumping the restart epoch rather than by queue surgery.
#[derive(Debug, Clone, Copy)]
enum FleetEv {
    /// The in-flight job finishes (valid only if `epoch` is current).
    JobDone { epoch: u64 },
    /// The spot market reclaims the instance.
    Interrupt,
}

const PRIO_JOB_DONE: u64 = 0;
const PRIO_INTERRUPT: u64 = 1;

/// Replays `schedule` (built by [`schedule_jobs`] over `durations_s`)
/// on spot capacity: each instance works through its assigned jobs in
/// longest-first order while seeded exponential interarrivals interrupt
/// it. An interruption discards the in-flight job's progress — and, under
/// [`CheckpointPolicy::None`], everything the instance completed since
/// its last (re)start — then charges [`SpotMarket::restart_overhead_s`]
/// before work resumes.
///
/// Each instance is replayed as a discrete-event simulation on the
/// [`ir_sim`] clock: the only events are job completions and market
/// interruptions, so the makespan costs two queue operations per state
/// change instead of any stepping.
///
/// The same seed, schedule and market reproduce the same run.
///
/// # Panics
///
/// Panics if the schedule's assignments don't match `durations_s`, if an
/// assignment indexes past the instance count, or if the market rate is
/// negative.
pub fn simulate_spot_schedule(
    durations_s: &[f64],
    schedule: &JobSchedule,
    market: &SpotMarket,
    checkpoint: CheckpointPolicy,
    seed: u64,
) -> SpotRun {
    let mut tele = Telemetry::off();
    simulate_spot_schedule_traced(durations_s, schedule, market, checkpoint, seed, &mut tele)
}

/// [`simulate_spot_schedule`] with telemetry: per-instance job and
/// restart spans land on [`Track::Instance`] rows of the tracer and the
/// `fleet/*` counter block tallies interruptions, completed/redone jobs
/// and lost/overhead time. Collection is purely observational — the
/// returned [`SpotRun`] is identical whether `tele` is on or off.
pub fn simulate_spot_schedule_traced(
    durations_s: &[f64],
    schedule: &JobSchedule,
    market: &SpotMarket,
    checkpoint: CheckpointPolicy,
    seed: u64,
    tele: &mut Telemetry,
) -> SpotRun {
    assert_eq!(
        schedule.assignments.len(),
        durations_s.len(),
        "schedule does not cover the job list"
    );
    let instances = schedule.instance_busy_s.len();
    assert!(
        schedule.assignments.iter().all(|&i| i < instances),
        "assignment indexes past the instance count"
    );

    // One shared stream across the whole fleet: instance `i+1` continues
    // where instance `i`'s draws left off, exactly as the pre-model code
    // sampled from its single RNG.
    let mut model = InterruptionModel::from_market(seed, market);
    let mut interruptions = 0u64;
    let mut lost_work_s = 0.0f64;
    let mut overhead_s = 0.0f64;
    let mut paid_instance_s = 0.0f64;
    let mut makespan_s = 0.0f64;

    tele.gauge_max("fleet", "instances", instances as u64);
    tele.gauge_max("fleet", "jobs", durations_s.len() as u64);
    for instance in 0..instances {
        // This instance's queue, longest first (the order LPT filled it);
        // job indices ride along so trace spans can name their job.
        let mut queue: Vec<(usize, f64)> = (0..durations_s.len())
            .filter(|&j| schedule.assignments[j] == instance)
            .map(|j| (j, durations_s[j]))
            .collect();
        queue.sort_by(|a, b| b.1.total_cmp(&a.1));

        let mut clock = 0.0f64;
        let mut next_interrupt = model.next_gap_s();
        let mut job = 0usize;
        let mut done_since_restart = 0.0f64;
        // Without checkpoints, a market whose mean interarrival is far
        // below the queue length may effectively never finish (expected
        // restarts grow as e^{rate × work}); bound the replay and report
        // an infinite makespan instead of spinning.
        let mut restarts_here = 0u64;
        const RESTART_CAP: u64 = 100_000;
        let mut epoch = 0u64;
        let mut events: EventQueue<FleetEv> = EventQueue::new();
        if job < queue.len() {
            events.push(
                SimTime::from_seconds(clock + queue[job].1),
                PRIO_JOB_DONE,
                FleetEv::JobDone { epoch },
            );
            if next_interrupt.is_finite() {
                events.push(
                    SimTime::from_seconds(next_interrupt),
                    PRIO_INTERRUPT,
                    FleetEv::Interrupt,
                );
            }
        }
        while let Some(ev) = events.pop() {
            match ev.msg {
                FleetEv::JobDone { epoch: e } => {
                    if e != epoch {
                        // Superseded by an interruption; the live copy of
                        // this job was rescheduled after the restart.
                        continue;
                    }
                    // The chromosome completes (and checkpoints) first.
                    let (job_idx, remaining) = queue[job];
                    if tele.is_enabled() {
                        tele.span(
                            Track::Instance(instance),
                            SpanKind::Job,
                            &format!("chr job {job_idx}"),
                            Some(job_idx),
                            clock,
                            clock + remaining,
                        );
                    }
                    tele.add("fleet", "jobs_completed", 1);
                    clock += remaining;
                    done_since_restart += remaining;
                    job += 1;
                    if job >= queue.len() {
                        break;
                    }
                    events.push(
                        SimTime::from_seconds(clock + queue[job].1),
                        PRIO_JOB_DONE,
                        FleetEv::JobDone { epoch },
                    );
                }
                FleetEv::Interrupt => {
                    interruptions += 1;
                    restarts_here += 1;
                    let job_idx = queue[job].0;
                    let in_flight = next_interrupt - clock;
                    lost_work_s += in_flight;
                    tele.add("fleet", "interruptions", 1);
                    tele.add("fleet", "lost_work_ms", (in_flight * 1e3).round() as u64);
                    if tele.is_enabled() {
                        tele.span(
                            Track::Instance(instance),
                            SpanKind::Job,
                            &format!("chr job {job_idx} (interrupted)"),
                            Some(job_idx),
                            clock,
                            next_interrupt,
                        );
                        tele.span(
                            Track::Instance(instance),
                            SpanKind::Restart,
                            "spot restart",
                            None,
                            next_interrupt,
                            next_interrupt + market.restart_overhead_s,
                        );
                    }
                    if checkpoint == CheckpointPolicy::None {
                        lost_work_s += done_since_restart;
                        tele.add("fleet", "jobs_redone", job as u64);
                        tele.add(
                            "fleet",
                            "lost_work_ms",
                            (done_since_restart * 1e3).round() as u64,
                        );
                        job = 0;
                    }
                    done_since_restart = 0.0;
                    clock = next_interrupt + market.restart_overhead_s;
                    overhead_s += market.restart_overhead_s;
                    tele.add(
                        "fleet",
                        "overhead_ms",
                        (market.restart_overhead_s * 1e3).round() as u64,
                    );
                    next_interrupt = clock + model.next_gap_s();
                    epoch += 1;
                    if restarts_here >= RESTART_CAP {
                        clock = f64::INFINITY;
                        break;
                    }
                    events.push(
                        SimTime::from_seconds(clock + queue[job].1),
                        PRIO_JOB_DONE,
                        FleetEv::JobDone { epoch },
                    );
                    events.push(
                        SimTime::from_seconds(next_interrupt),
                        PRIO_INTERRUPT,
                        FleetEv::Interrupt,
                    );
                }
            }
        }
        tele.gauge_max("fleet", "restarts_per_instance_hwm", restarts_here);
        paid_instance_s += clock;
        makespan_s = makespan_s.max(clock);
    }

    let clean_work: f64 = durations_s.iter().sum();
    SpotRun {
        makespan_s,
        interruptions,
        lost_work_s,
        overhead_s,
        paid_instance_s,
        makespan_inflation: if schedule.makespan_s > 0.0 {
            makespan_s / schedule.makespan_s
        } else {
            1.0
        },
        cost_inflation: if clean_work > 0.0 {
            paid_instance_s / clean_work
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_spreads_chromosome_jobs() {
        // Four jobs on two machines: LPT pairs 8 with 2 and 5 with 4.
        let schedule = schedule_jobs(&[8.0, 5.0, 4.0, 2.0], 2);
        assert!((schedule.makespan_s - 10.0).abs() < 1e-12);
        assert!(schedule.utilization() > 0.9);
        assert_ne!(schedule.assignments[0], schedule.assignments[1]);
    }

    #[test]
    fn single_instance_serializes() {
        let schedule = schedule_jobs(&[1.0, 2.0, 3.0], 1);
        assert!((schedule.makespan_s - 6.0).abs() < 1e-12);
        assert!((schedule.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_instances_than_jobs() {
        let schedule = schedule_jobs(&[5.0, 1.0], 8);
        assert!((schedule.makespan_s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_jobs_are_free() {
        let schedule = schedule_jobs(&[], 4);
        assert_eq!(schedule.makespan_s, 0.0);
        assert_eq!(schedule.utilization(), 0.0);
    }

    #[test]
    fn zero_instances_yields_the_degenerate_plan() {
        let schedule = schedule_jobs(&[1.0, 2.0], 0);
        assert!(schedule.makespan_s.is_infinite());
        assert!(schedule.assignments.is_empty());
        assert!(schedule.instance_busy_s.is_empty());
        assert!(schedule.is_degenerate());
        assert_eq!(schedule.utilization(), 0.0);

        let empty = schedule_jobs(&[], 0);
        assert_eq!(empty.makespan_s, 0.0);
        assert!(!empty.is_degenerate(), "no work pending means no failure");
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn healthy_schedules_are_not_degenerate() {
        assert!(!schedule_jobs(&[1.0, 2.0], 2).is_degenerate());
        assert!(!schedule_jobs(&[], 2).is_degenerate());
    }

    #[test]
    fn interruption_model_reproduces_and_skips_zero_rate_draws() {
        // Same seed, same gaps.
        let mut a = InterruptionModel::new(7, 20.0);
        let mut b = InterruptionModel::from_market(
            7,
            &SpotMarket {
                interruptions_per_hour: 20.0,
                ..SpotMarket::volatile()
            },
        );
        for _ in 0..32 {
            let (ga, gb) = (a.next_gap_s(), b.next_gap_s());
            assert_eq!(ga.to_bits(), gb.to_bits());
            assert!(ga > 0.0 && ga.is_finite());
        }
        // The model pins the exact inverse-CDF draw the pre-model code
        // made inline: -(ln(1 - u)) / lambda on a shared StdRng.
        let mut model = InterruptionModel::new(11, 20.0);
        let mut rng = StdRng::seed_from_u64(11);
        let lambda = 20.0 / 3600.0;
        for _ in 0..8 {
            let u: f64 = rng.random();
            let inline = -(1.0 - u).ln() / lambda;
            assert_eq!(model.next_gap_s().to_bits(), inline.to_bits());
        }
        // Zero rate: infinite gap, no RNG consumption.
        let mut calm = InterruptionModel::new(3, 0.0);
        assert!(calm.next_gap_s().is_infinite());
        assert_eq!(calm.rate_per_s(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_interruption_rate_panics() {
        let _ = InterruptionModel::new(0, -1.0);
    }

    #[test]
    fn quiet_spot_market_changes_nothing() {
        let durations = [8.0, 5.0, 4.0, 2.0];
        let schedule = schedule_jobs(&durations, 2);
        let market = SpotMarket {
            interruptions_per_hour: 0.0,
            ..SpotMarket::calm()
        };
        let run = simulate_spot_schedule(
            &durations,
            &schedule,
            &market,
            CheckpointPolicy::PerChromosome,
            1,
        );
        assert_eq!(run.interruptions, 0);
        assert_eq!(run.lost_work_s, 0.0);
        assert!((run.makespan_s - schedule.makespan_s).abs() < 1e-9);
        assert!((run.makespan_inflation - 1.0).abs() < 1e-9);
        assert!((run.cost_inflation - 1.0).abs() < 1e-9);
        assert!(run.cost_vs_on_demand(&market) < 1.0, "spot stays cheap");
    }

    #[test]
    fn spot_runs_are_reproducible() {
        // 22 chromosome-ish jobs over 4 instances in a churning market.
        let durations: Vec<f64> = (1..=22).map(|c| 60.0 + 10.0 * c as f64).collect();
        let schedule = schedule_jobs(&durations, 4);
        let run = |seed| {
            simulate_spot_schedule(
                &durations,
                &schedule,
                &SpotMarket::volatile(),
                CheckpointPolicy::PerChromosome,
                seed,
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn interruptions_inflate_makespan_and_cost() {
        let durations: Vec<f64> = (1..=22).map(|c| 120.0 + 30.0 * c as f64).collect();
        let schedule = schedule_jobs(&durations, 4);
        // Aggressive market so every seed sees interruptions.
        let market = SpotMarket {
            interruptions_per_hour: 20.0,
            ..SpotMarket::volatile()
        };
        let run = simulate_spot_schedule(
            &durations,
            &schedule,
            &market,
            CheckpointPolicy::PerChromosome,
            3,
        );
        assert!(run.interruptions > 0);
        assert!(run.lost_work_s > 0.0);
        assert!(run.makespan_inflation > 1.0);
        assert!(run.cost_inflation > 1.0);
        assert!(run.makespan_s > schedule.makespan_s);
    }

    #[test]
    fn checkpointing_beats_restarting_from_scratch() {
        let durations: Vec<f64> = (1..=22).map(|c| 120.0 + 30.0 * c as f64).collect();
        let schedule = schedule_jobs(&durations, 4);
        let market = SpotMarket {
            interruptions_per_hour: 20.0,
            ..SpotMarket::volatile()
        };
        let with = simulate_spot_schedule(
            &durations,
            &schedule,
            &market,
            CheckpointPolicy::PerChromosome,
            5,
        );
        let without =
            simulate_spot_schedule(&durations, &schedule, &market, CheckpointPolicy::None, 5);
        assert!(
            without.lost_work_s > with.lost_work_s,
            "scratch restarts {} must lose more than checkpointed {}",
            without.lost_work_s,
            with.lost_work_s
        );
        assert!(without.cost_inflation >= with.cost_inflation);
    }

    #[test]
    fn hopeless_market_reports_infinite_makespan() {
        // Mean interarrival of ~0.36 s against a 3600 s job, no
        // checkpoints: the replay hits the restart cap and gives up.
        let durations = [3600.0];
        let schedule = schedule_jobs(&durations, 1);
        let market = SpotMarket {
            interruptions_per_hour: 10_000.0,
            restart_overhead_s: 1.0,
            price_fraction: 0.3,
        };
        let run = simulate_spot_schedule(&durations, &schedule, &market, CheckpointPolicy::None, 2);
        assert!(run.makespan_s.is_infinite());
    }

    #[test]
    fn traced_spot_run_is_identical_and_records_spans() {
        let durations: Vec<f64> = (1..=22).map(|c| 120.0 + 30.0 * c as f64).collect();
        let schedule = schedule_jobs(&durations, 4);
        let market = SpotMarket {
            interruptions_per_hour: 20.0,
            ..SpotMarket::volatile()
        };
        let plain = simulate_spot_schedule(
            &durations,
            &schedule,
            &market,
            CheckpointPolicy::PerChromosome,
            3,
        );
        let mut tele = Telemetry::on();
        let traced = simulate_spot_schedule_traced(
            &durations,
            &schedule,
            &market,
            CheckpointPolicy::PerChromosome,
            3,
            &mut tele,
        );
        assert_eq!(plain, traced, "telemetry must be purely observational");
        let snapshot = tele.finish().expect("telemetry was on");
        assert_eq!(
            snapshot.counter("fleet/jobs_completed"),
            durations.len() as u64
        );
        assert_eq!(
            snapshot.counter("fleet/interruptions"),
            traced.interruptions
        );
        assert!(snapshot
            .trace
            .events
            .iter()
            .any(|e| matches!(e.track, Track::Instance(_)) && e.kind == SpanKind::Restart));
        assert!(snapshot
            .trace
            .events
            .iter()
            .any(|e| e.kind == SpanKind::Job && e.target.is_some()));
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn mismatched_schedule_panics() {
        let schedule = schedule_jobs(&[1.0, 2.0], 2);
        let _ = simulate_spot_schedule(
            &[1.0],
            &schedule,
            &SpotMarket::calm(),
            CheckpointPolicy::PerChromosome,
            0,
        );
    }

    #[test]
    fn one_instance_covers_light_demand() {
        // ~31 min/genome → ~46 genomes/day/instance.
        let plan = FleetSizing {
            genomes_per_day: 40.0,
            seconds_per_genome: 31.0 * 60.0,
        }
        .plan(Instance::f1_2xlarge());
        assert_eq!(plan.instances, 1);
        assert!(plan.cost_per_genome_usd < 1.0);
    }

    #[test]
    fn fleet_scales_linearly() {
        let small = FleetSizing {
            genomes_per_day: 100.0,
            seconds_per_genome: 1860.0,
        }
        .plan(Instance::f1_2xlarge());
        let big = FleetSizing {
            genomes_per_day: 10_000.0,
            seconds_per_genome: 1860.0,
        }
        .plan(Instance::f1_2xlarge());
        assert_eq!(small.instances, 3);
        assert_eq!(big.instances, 216);
        assert!((big.cost_per_day_usd / small.cost_per_day_usd - 100.0).abs() < 1.0);
    }

    #[test]
    fn software_fleet_costs_an_order_of_magnitude_more() {
        // GATK3: 42 h/genome on r3 vs IRACC: ~31 min on F1.
        let sw = FleetSizing {
            genomes_per_day: 1000.0,
            seconds_per_genome: 42.0 * 3600.0,
        }
        .plan(Instance::r3_2xlarge());
        let hw = FleetSizing {
            genomes_per_day: 1000.0,
            seconds_per_genome: 31.5 * 60.0,
        }
        .plan(Instance::f1_2xlarge());
        assert!(sw.cost_per_day_usd > 25.0 * hw.cost_per_day_usd);
        assert!(sw.instances > 30 * hw.instances);
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn zero_demand_panics() {
        let _ = FleetSizing {
            genomes_per_day: 0.0,
            seconds_per_genome: 60.0,
        }
        .plan(Instance::f1_2xlarge());
    }
}
