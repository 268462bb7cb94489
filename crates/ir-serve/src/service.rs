//! The single-pool service — a one-node fleet — and the per-node report
//! every service and fleet node produces.

use ir_fpga::ResilienceReport;
use ir_telemetry::json::escape_json_string;
use ir_telemetry::{PerfCounters, Trace};
use std::fmt::Write as _;

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::fleet::{FleetConfig, FleetService};
use crate::request::{Rejection, Request, Response};

/// Everything one service run (or one fleet node) produced.
#[derive(Debug)]
pub struct ServiceReport {
    /// Completed responses in completion order (deterministic: virtual
    /// time with stable tie-breaking).
    pub responses: Vec<Response>,
    /// Admission-control rejections in arrival order.
    pub rejections: Vec<Rejection>,
    /// Virtual time of the last batch completion (0 for an empty run).
    pub makespan_s: f64,
    /// Batches dispatched.
    pub batches: u64,
    /// Aggregated resilience report across every batch (all-default when
    /// fault injection was off).
    pub resilience: ResilienceReport,
    /// The `serve/*` counter registry (plus mirrored `resilience/*`
    /// counters when fault injection was on): admission/batching/shard
    /// tallies, per-request span histograms (`serve/span_*_us`) and the
    /// SLO counters `serve/slo_met` / `serve/slo_missed`.
    pub counters: PerfCounters,
    /// The latency SLO the run was judged against
    /// ([`ServeConfig::slo_deadline_s`]).
    pub slo_deadline_s: f64,
    /// Per-shard span trace: one `batch <seq>` compute span per
    /// dispatched batch on `Track::Shard(i)`, loadable in Perfetto via
    /// [`Trace::to_chrome_json`].
    pub trace: Trace,
}

impl ServiceReport {
    /// Completed requests.
    pub fn completed(&self) -> u64 {
        self.responses.len() as u64
    }

    /// Requests offered = completed + rejected.
    pub fn offered(&self) -> u64 {
        self.completed() + self.rejections.len() as u64
    }

    /// Completed requests per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.completed() as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// Latency percentile in seconds (`p` in 0..=100): the sorted
    /// latency at rank `round(p / 100 · (n − 1))`, counting from 0.
    ///
    /// # Errors
    ///
    /// [`ServeError::PercentileOutOfRange`] for `p` outside `0..=100`,
    /// [`ServeError::NoResponses`] if nothing completed.
    pub fn latency_percentile_s(&self, p: f64) -> Result<f64, ServeError> {
        if !(0.0..=100.0).contains(&p) {
            return Err(ServeError::PercentileOutOfRange { p });
        }
        if self.responses.is_empty() {
            return Err(ServeError::NoResponses);
        }
        let mut lat: Vec<f64> = self.responses.iter().map(Response::latency_s).collect();
        lat.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * (lat.len() - 1) as f64).round() as usize;
        Ok(lat[rank])
    }

    /// Mean requests per dispatched batch.
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed() as f64 / self.batches as f64
        }
    }

    /// Responses sorted by request id (the order the tests compare
    /// against a direct backend run).
    pub fn responses_by_id(&self) -> Vec<&Response> {
        let mut sorted: Vec<&Response> = self.responses.iter().collect();
        sorted.sort_by_key(|r| r.id);
        sorted
    }

    /// Fraction of completed requests that met the latency SLO
    /// ([`ServeConfig::slo_deadline_s`]); 1.0 for an empty run.
    pub fn slo_attainment(&self) -> f64 {
        let met = self.counters.counter("serve/slo_met");
        let missed = self.counters.counter("serve/slo_missed");
        if met + missed == 0 {
            1.0
        } else {
            met as f64 / (met + missed) as f64
        }
    }

    /// Structured JSON export: the headline service metrics plus every
    /// counter, gauge and span-histogram summary, as one deterministic
    /// document (`ir-cli serve --json FILE` writes this).
    pub fn to_json(&self) -> String {
        let pctl = |p: f64| self.latency_percentile_s(p).unwrap_or(0.0) * 1e6;
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"completed\": {},", self.completed());
        let _ = writeln!(out, "  \"rejected\": {},", self.rejections.len());
        let _ = writeln!(out, "  \"batches\": {},", self.batches);
        let _ = writeln!(out, "  \"makespan_s\": {},", self.makespan_s);
        let _ = writeln!(out, "  \"throughput_rps\": {},", self.throughput_rps());
        let _ = writeln!(out, "  \"latency_p50_us\": {},", pctl(50.0));
        let _ = writeln!(out, "  \"latency_p95_us\": {},", pctl(95.0));
        let _ = writeln!(out, "  \"latency_p99_us\": {},", pctl(99.0));
        let _ = writeln!(out, "  \"slo_deadline_s\": {},", self.slo_deadline_s);
        let _ = writeln!(out, "  \"slo_attainment\": {},", self.slo_attainment());
        let mut first = true;
        let sep = |out: &mut String, first: &mut bool| {
            if !std::mem::take(first) {
                out.push_str(",\n");
            }
        };
        out.push_str("  \"counters\": {\n");
        for (k, v) in self.counters.counters() {
            sep(&mut out, &mut first);
            let _ = write!(out, "    {}: {v}", escape_json_string(k));
        }
        out.push_str("\n  },\n  \"gauges\": {\n");
        first = true;
        for (k, v) in self.counters.gauges() {
            sep(&mut out, &mut first);
            let _ = write!(out, "    {}: {v}", escape_json_string(k));
        }
        out.push_str("\n  },\n  \"histograms\": {\n");
        first = true;
        for (k, h) in self.counters.histograms() {
            sep(&mut out, &mut first);
            let p = |q: f64| h.percentile(q).unwrap_or(0);
            let _ = write!(
                out,
                "    {}: {{\"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                escape_json_string(k),
                h.count,
                h.mean(),
                if h.count == 0 { 0 } else { h.min },
                h.max,
                p(50.0),
                p(95.0),
                p(99.0),
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// The async batched realignment service: a one-node [`FleetService`]
/// with zero hop latency, no autoscaler and no spot profile.
///
/// [`RealignService::run`] replays a request stream through a bounded
/// admission queue, the size-or-deadline adaptive batcher and a pool of
/// accelerator shards — the fleet's node loop, entirely in virtual time —
/// so the report is a pure function of `(config, requests)`. Every run
/// rebuilds the shard pool, so a service can be run again and repeats
/// itself exactly, fault streams included.
#[derive(Debug)]
pub struct RealignService {
    fleet: FleetService,
}

impl RealignService {
    /// Validates `config` and checks that its shard pool can be built.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for an inconsistent config, or
    /// [`ServeError::Backend`] for an impossible FPGA configuration.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        let fleet = FleetService::new(FleetConfig {
            nodes: 1,
            node: config,
            hop_latency_s: 0.0,
            autoscale: None,
            spot: None,
            ..FleetConfig::default()
        })?;
        Ok(RealignService { fleet })
    }

    /// The configuration this pool was built from.
    pub fn config(&self) -> &ServeConfig {
        &self.fleet.config().node
    }

    /// Serves a request stream to completion and reports what happened.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnsortedArrivals`] if `requests` is not sorted by
    /// arrival time (an open-loop generator produces them sorted by
    /// construction); the remaining variants report event-loop invariant
    /// violations that would previously have aborted the process — the
    /// `ir-fuzz` harness treats any of them as a divergence.
    pub fn run(&mut self, requests: Vec<Request>) -> Result<ServiceReport, ServeError> {
        self.fleet
            .run(requests)?
            .node_reports
            .pop()
            .ok_or(ServeError::NoActiveNodes)
    }
}
