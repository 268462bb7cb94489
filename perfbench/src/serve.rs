//! `serve-open-loop`: one seeded Poisson stream of bench-profile requests
//! on the virtual clock, served by the single-pool `RealignService` and by
//! a 4-node `FleetService`, each report then written by the telemetry
//! JSON writers.
//!
//! The stream is offered at a fixed fraction of a calibrated capacity,
//! low enough that batches stay small, so the serve loop's own cost is a
//! large share of the run. Arrivals are virtual timestamps, so the
//! generator can never run late.

use std::collections::BTreeMap;
use std::hint::black_box;

use ir_fpga::unit::simulate_target;
use ir_fpga::{AcceleratedSystem, FunctionalOracle};
use ir_genome::RealignmentTarget;
use ir_serve::{
    FleetConfig, FleetReport, FleetService, RealignService, Request, Response, ServeConfig,
    ServiceReport, Shard,
};
use ir_telemetry::PerfCounters;
use ir_workloads::ArrivalProcess;

use crate::common::{
    generator, probe, sample, Fpga, KernelSums, Key, Modeled, ProbeOut, Report, ARRIVAL_SEED,
    WORKLOAD_SEED,
};
use crate::digest::Digest;
use crate::harness::{measure, Layers, PassOut, Plan, ANALYSIS_RUN};
use crate::span::{Scope, Tracer};
use crate::stats::{nearest_rank, offered_latencies, slo_attainment};
use crate::Opts;

/// Scale in the repo's serve benches' terms: `48 000 × SCALE` requests.
pub const SCALE: f64 = 0.1;
/// Offered rate as a fraction of the calibrated single-pool capacity.
const LOAD: f64 = 0.5;
/// Fleet size.
const NODES: usize = 4;
/// Set-ups per run.
const SETUP_REPEATS: usize = 5;
/// Requests cross-checked against the cycle-stepped reference.
const REFERENCE_SAMPLE: usize = 6;

fn request_count() -> usize {
    (48_000.0 * SCALE).round() as usize
}

/// The bench-profile targets of the stream for benchmark seed `seed`.
fn stream_targets(seed: u64) -> Vec<RealignmentTarget> {
    generator(seed, 1e-3).targets(request_count(), WORKLOAD_SEED.wrapping_add(seed))
}

/// Poisson arrivals at `rate_rps` for `targets`.
fn stream(targets: Vec<RealignmentTarget>, seed: u64, rate_rps: f64) -> Vec<Request> {
    let arrival_seed = ARRIVAL_SEED.wrapping_add(seed);
    let times = ArrivalProcess::poisson(arrival_seed, rate_rps).times(targets.len());
    targets
        .into_iter()
        .zip(times)
        .enumerate()
        .map(|(i, (t, at))| Request::new(i as u64, at, t))
        .collect()
}

/// The request stream and the two services.
pub struct Setup {
    requests: Vec<Request>,
    config: ServeConfig,
    pool: RealignService,
    fleet: FleetService,
}

/// Every shard runs the paper's IRACC configuration on one oracle thread.
fn config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }
}

/// The offered rate in requests per modeled second: `LOAD` times the
/// capacity of the pool, i.e. of one shard executing `targets` in full
/// batches back to back, times the shard count (the calibration the
/// repo's serve benches use). It runs the oracle over every target, so it
/// runs once per run, outside the timed set-ups.
fn calibrate(targets: &[RealignmentTarget], config: &ServeConfig) -> f64 {
    let mut shard = Shard::new(0, config).expect("default shard builds");
    for chunk in targets.chunks(config.max_batch) {
        shard.run_batch(chunk).expect("non-empty calibration batch");
    }
    LOAD * config.shards as f64 * targets.len() as f64 / shard.busy_s()
}

fn setup(seed: u64, rate_rps: f64, scope: Scope<'_>) -> Setup {
    let targets = scope.span("workloads.gen", 0, |_| stream_targets(seed));
    let config = config();
    let fleet = FleetConfig {
        nodes: NODES,
        node: config.clone(),
        ..FleetConfig::default()
    };
    Setup {
        requests: stream(targets, seed, rate_rps),
        pool: RealignService::new(config.clone()).expect("default service config is valid"),
        fleet: FleetService::new(fleet).expect("4-node fleet config is valid"),
        config,
    }
}

/// Both services' reports from one pass.
pub struct Payload {
    pool: ServiceReport,
    fleet: FleetReport,
    emit_bytes: usize,
}

fn digest_service(d: &mut Digest, r: &ServiceReport) {
    for x in &r.responses {
        [x.id, x.shard as u64, x.batch, x.batch_size as u64]
            .into_iter()
            .chain([x.best_consensus as u64, x.realigned as u64])
            .chain([x.family.index() as u64, x.tenant as u64])
            .for_each(|v| d.u64(v));
        [x.arrival_s, x.ready_s, x.dispatch_s, x.completion_s]
            .into_iter()
            .for_each(|v| d.f64(v));
    }
    for x in &r.rejections {
        d.u64(x.id);
        d.f64(x.arrival_s);
        d.f64(x.retry_after_s);
    }
    d.f64(r.makespan_s);
    d.u64(r.batches);
    digest_counters(d, &r.counters);
}

fn digest_counters(d: &mut Digest, c: &PerfCounters) {
    for (k, v) in c.counters().chain(c.gauges()) {
        d.str(k);
        d.u64(v);
    }
}

fn pass(s: &mut Setup, scope: Scope<'_>) -> Result<PassOut<Payload>, String> {
    let requests = s.requests.clone();
    let pool = scope
        .span("serve.pool", 0, |_| s.pool.run(requests))
        .map_err(|e| format!("pool: {e}"))?;
    let mut emit_bytes = scope.span("telemetry.emit", 0, |_| {
        black_box(pool.to_json()).len() + black_box(pool.trace.to_chrome_json()).len()
    });
    let requests = s.requests.clone();
    let fleet = scope
        .span("serve.fleet", 0, |_| s.fleet.run(requests))
        .map_err(|e| format!("fleet: {e}"))?;
    emit_bytes += scope.span("telemetry.emit", 1, |_| {
        black_box(fleet.to_json()).len()
            + fleet
                .node_reports
                .iter()
                .map(|r| black_box(r.trace.to_chrome_json()).len())
                .sum::<usize>()
    });
    let mut d = Digest::default();
    digest_service(&mut d, &pool);
    for r in &fleet.node_reports {
        digest_service(&mut d, r);
    }
    digest_counters(&mut d, &fleet.counters);
    d.f64(fleet.makespan_s);
    fleet.node_active_s.iter().for_each(|&a| d.f64(a));
    d.u64(fleet.peak_nodes as u64);
    Ok(PassOut {
        runs: pool.completed() + fleet.completed(),
        failed: 0,
        digest: d.finish(),
        payload: Payload {
            pool,
            fleet,
            emit_bytes,
        },
    })
}

/// Whether completed and refused requests partition the offered stream.
fn conserves<'a>(
    responses: impl Iterator<Item = &'a Response>,
    refused: impl Iterator<Item = u64>,
    offered: usize,
) -> bool {
    let mut seen = vec![0u32; offered];
    for id in responses.map(|r| r.id).chain(refused) {
        match seen.get_mut(id as usize) {
            Some(n) => *n += 1,
            None => return false,
        }
    }
    seen.iter().all(|&n| n == 1)
}

/// Modeled p99 (ms) and SLO attainment over offered requests.
fn offered_view<'a>(
    responses: impl Iterator<Item = &'a Response>,
    refused: usize,
    deadline_s: f64,
) -> (f64, f64) {
    let lat = offered_latencies(responses.map(Response::latency_s), refused);
    let p99 = nearest_rank(&lat, 99.0).unwrap_or(0.0) * 1e3;
    (p99, slo_attainment(&lat, deadline_s))
}

/// Replays every recorded batch (`serve.replay`) through a fresh oracle
/// and `run_with_oracle`, as the shard does, and checks the modeled batch
/// time and each response against the service's own. Returns
/// `(batches, failed batches)`.
fn replay(
    scope: Scope<'_>,
    responses: &[Response],
    requests: &[Request],
    system: &AcceleratedSystem,
    fpga: &mut Fpga,
) -> (u64, u64) {
    let (mut batches, mut failed) = (0u64, 0u64);
    for batch in responses.chunk_by(|a, b| a.batch == b.batch) {
        let ts: Vec<RealignmentTarget> = batch
            .iter()
            .map(|r| requests[r.id as usize].target.clone())
            .collect();
        let run = scope.span("serve.replay", batch[0].batch, |_| {
            let mut oracle = FunctionalOracle::new();
            oracle.precompute(&ts, system.params(), 1);
            system.run_with_oracle(&ts, &mut oracle)
        });
        fpga.add(&run);
        batches += 1;
        let ok = batch.len() == batch[0].batch_size
            && batch.iter().zip(&run.results).all(|(r, u)| {
                r.dispatch_s + run.wall_time_s == r.completion_s
                    && (r.best_consensus, r.realigned) == (u.best, u.realigned_count())
            });
        failed += u64::from(!ok);
    }
    (batches, failed)
}

/// What the traced run's batch replays found.
#[derive(Default)]
struct Replays {
    rounds: u32,
    batches: u64,
    failed: u64,
    fpga: Fpga,
}

/// One replay round of both services' batches, as its own run.
fn replay_round(tracer: &Tracer, p: &Payload, requests: &[Request], out: &mut Replays) {
    let system = AcceleratedSystem::new(config().params, config().scheduling)
        .expect("the shard's configuration fits");
    let mut fpga = Fpga::default();
    tracer
        .root(ANALYSIS_RUN - out.rounds)
        .span("replay", 0, |scope| {
            let mut reports = vec![&p.pool];
            reports.extend(&p.fleet.node_reports);
            for r in reports {
                let (b, f) = replay(scope, &r.responses, requests, &system, &mut fpga);
                out.batches += b;
                out.failed += f;
            }
        });
    out.rounds += 1;
    out.fpga = fpga;
}

/// Runs the workload and reports its metrics.
pub fn run(opts: &Opts, tracer: &Tracer) -> Report {
    let plan = Plan {
        traced: opts.trace,
        seconds: opts.seconds,
        setup_repeats: SETUP_REPEATS,
        threads: 1,
    };
    let t0 = std::time::Instant::now();
    let rate_rps = calibrate(&stream_targets(opts.seed), &config());
    let calibrate_s = t0.elapsed().as_secs_f64();
    // The batch replay is the subtrahend of `serve.self_s`. A traced run
    // replays before every pass, so replays and the service runs they are
    // subtracted from sample the host's speed over the same stretch.
    let mut replays = Replays::default();
    let m = measure(
        tracer,
        plan,
        |scope| setup(opts.seed, rate_rps, scope),
        |s, payload| {
            if let (true, Some(p)) = (opts.trace, payload) {
                replay_round(tracer, p, &s.requests, &mut replays);
            }
        },
        |s| 2 * s.requests.len() as u64,
        pass,
    );
    let mut r = Report::from_measured(&m, SCALE, m.setup.config.threads);
    let Some(p) = &m.payload else {
        return r;
    };
    let s = &m.setup;
    let n = s.requests.len();
    let targets: Vec<RealignmentTarget> = s.requests.iter().map(|q| q.target.clone()).collect();
    r.tally.notes.push(format!(
        "{n} requests offered at {rate_rps:.0} req/s ({}% of calibrated pool capacity; \
         calibration took {calibrate_s:.3} s, outside setup_s)",
        LOAD * 100.0
    ));

    let fleet_responses = || p.fleet.node_reports.iter().flat_map(|x| &x.responses);
    let fleet_refused = || {
        p.fleet
            .node_reports
            .iter()
            .flat_map(|x| x.rejections.iter().map(|j| j.id))
    };
    let pool_ok = conserves(
        p.pool.responses.iter(),
        p.pool.rejections.iter().map(|j| j.id),
        n,
    );
    let fleet_ok = conserves(fleet_responses(), fleet_refused(), n);
    r.tally.check(
        2,
        u64::from(!pool_ok) + u64::from(!fleet_ok),
        "completed + rejected == offered",
    );

    // Every response against a direct oracle run of its target.
    let iracc = Key::Iracc.params();
    let mut direct = FunctionalOracle::new();
    direct.precompute(&targets, &iracc, 1);
    let mut runs = Vec::with_capacity(n);
    for (i, t) in targets.iter().enumerate() {
        runs.push(direct.simulate(t, i, &iracc));
    }
    let responses: Vec<&Response> = p.pool.responses.iter().chain(fleet_responses()).collect();
    let wrong = responses
        .iter()
        .filter(|x| {
            let u = &runs[x.id as usize];
            (x.best_consensus, x.realigned) != (u.best, u.realigned_count())
        })
        .count() as u64;
    r.tally.check(
        responses.len() as u64,
        wrong,
        "responses match a direct run",
    );
    let picks = sample(n, REFERENCE_SAMPLE, opts.seed);
    let mismatched = picks
        .iter()
        .filter(|&&i| simulate_target(&targets[i], &iracc) != runs[i])
        .count() as u64;
    r.tally.check(
        picks.len() as u64,
        mismatched,
        "cross-check against unit::simulate_target",
    );

    let deadline = s.config.slo_deadline_s;
    let (p99, slo) = offered_view(p.pool.responses.iter(), p.pool.rejections.len(), deadline);
    let lib = |p99: Result<f64, _>, slo: f64| {
        format!(
            "library, completed only: p99 {:.4} ms, attainment {slo:.4}",
            p99.unwrap_or(0.0) * 1e3
        )
    };
    r.modeled.push(Modeled {
        name: "modeled_p99_ms",
        value: p99,
        unit: "ms",
        note: format!(
            "single pool, over {n} offered; {}",
            lib(p.pool.latency_percentile_s(99.0), p.pool.slo_attainment())
        ),
    });
    r.modeled.push(Modeled {
        name: "modeled_slo_attainment",
        value: slo,
        unit: "ratio",
        note: format!(
            "single pool, {:.0} ms SLO over offered requests",
            deadline * 1e3
        ),
    });
    let (fp99, fslo) = offered_view(fleet_responses(), fleet_refused().count(), deadline);
    r.modeled.push(Modeled {
        name: "modeled_fleet_p99_ms",
        value: fp99,
        unit: "ms",
        note: format!(
            "{NODES}-node fleet; {}",
            lib(p.fleet.latency_percentile_s(99.0), p.fleet.slo_attainment())
        ),
    });
    r.modeled.push(Modeled {
        name: "modeled_fleet_slo_attainment",
        value: fslo,
        unit: "ratio",
        note: format!("{NODES}-node fleet over offered requests"),
    });

    if opts.trace {
        if replays.rounds == 0 {
            replay_round(tracer, p, &s.requests, &mut replays);
        }
        r.tally.check(
            replays.batches,
            replays.failed,
            "replayed batches match the service's times and payloads",
        );
        let batches = replays.batches / u64::from(replays.rounds);
        let mut probed = ProbeOut::default();
        let sums: Vec<KernelSums> = runs.iter().map(KernelSums::of).collect();
        tracer.root(ANALYSIS_RUN).span("probe", 0, |scope| {
            probe(scope, &targets, &[(Key::Iracc, &sums)], &mut probed);
        });
        r.tally.check(
            probed.checked,
            probed.failed,
            "probe sums equal the oracle's unit runs",
        );

        let layers = Layers::new(tracer.spans());
        let mut l = BTreeMap::new();
        l.insert("workloads.gen_s", layers.busy_s("workloads.gen"));
        l.insert("workloads.targets", n as f64);
        probed.metrics(&layers, &mut l);
        let run_s = layers.busy_s("serve.pool") + layers.busy_s("serve.fleet");
        let self_s = run_s - layers.busy_s("serve.replay");
        let served = (p.pool.completed() + p.fleet.completed()) as f64;
        let refused = (p.pool.rejections.len() as u64 + p.fleet.rejected()) as f64;
        l.insert("serve.run_s", run_s);
        l.insert("serve.self_s", self_s);
        l.insert("serve.batches", batches as f64);
        if batches > 0 {
            l.insert("serve.us_per_batch", self_s * 1e6 / batches as f64);
            l.insert("serve.batch_occupancy", served / batches as f64);
        }
        l.insert("serve.rejected_frac", refused / (2 * n) as f64);
        l.insert("telemetry.emit_s", layers.busy_s("telemetry.emit"));
        l.insert("telemetry.emit_bytes", p.emit_bytes as f64);
        replays.fpga.metrics(&mut l);
        r.layers = l;
        r.trace_metrics(&m, &layers);
        r.spans = layers.spans().to_vec();
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(id: u64, arrival_s: f64, completion_s: f64) -> Response {
        Response {
            id,
            arrival_s,
            ready_s: arrival_s,
            dispatch_s: arrival_s,
            completion_s,
            shard: 0,
            batch: 0,
            batch_size: 1,
            best_consensus: 0,
            realigned: 0,
            family: Default::default(),
            tenant: 0,
        }
    }

    #[test]
    fn offered_view_counts_refusals_as_misses() {
        let done: Vec<Response> = (0..99).map(|i| response(i, 0.0, 1e-3)).collect();
        let (p99, slo) = offered_view(done.iter(), 1, 10e-3);
        assert_eq!(
            p99, 1.0,
            "p99 of 100 offered is rank 99, a completed request"
        );
        assert!((slo - 0.99).abs() < 1e-12);
        let (p99, slo) = offered_view(done.iter().take(50), 50, 10e-3);
        assert!(p99.is_infinite());
        assert_eq!(slo, 0.5);
    }

    #[test]
    fn conservation_needs_each_id_exactly_once() {
        let done = [response(0, 0.0, 1.0), response(2, 0.0, 1.0)];
        assert!(conserves(done.iter(), [1].into_iter(), 3));
        assert!(!conserves(done.iter(), std::iter::empty(), 3), "id 1 lost");
        assert!(!conserves(done.iter(), [1, 1].into_iter(), 3), "id 1 twice");
        assert!(!conserves(done.iter(), [7].into_iter(), 3), "unknown id");
    }
}
