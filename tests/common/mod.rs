//! Golden digests shared by the integration suites.
//!
//! A digest folds everything a run or report carries into one FNV-1a
//! value, so a committed constant pins a scenario bit for bit; a digest
//! may change only with a modeled-output change that explains it.
//!
//! - [`report_digest`]: a served [`ServiceReport`] — every response field
//!   (timestamps as `f64` bits), every rejection, the makespan bits and
//!   batch count, every counter and gauge, the JSON export and the Chrome
//!   trace. Its committed constants were computed from the separate
//!   single-pool event loop that `RealignService` ran before it became a
//!   one-node `FleetService`.
//! - [`snapshot_digest`]: a [`TelemetrySnapshot`] — every counter, gauge,
//!   histogram and trace event.
//! - [`run_digest`]: a whole [`SystemRun`] — every accumulated second as
//!   `f64` bits, the cycle and comparison totals, every result, the
//!   timeline, the resilience report and the telemetry snapshot.
//!
//! Each suite uses a subset of these helpers.
#![allow(dead_code)]

use ir_system::fpga::{ResilienceReport, SystemRun, TimelinePhase};
use ir_system::fuzz::Fnv;
use ir_system::serve::ServiceReport;
use ir_system::telemetry::TelemetrySnapshot;

/// The FNV-1a digest of everything `report` carries.
pub fn report_digest(report: &ServiceReport) -> u64 {
    let mut h = Fnv::new();
    for r in &report.responses {
        for v in [
            r.id,
            r.shard as u64,
            r.batch,
            r.batch_size as u64,
            r.best_consensus as u64,
            r.realigned as u64,
            r.family.index() as u64,
            r.tenant as u64,
        ] {
            h.u64(v);
        }
        for t in [r.arrival_s, r.ready_s, r.dispatch_s, r.completion_s] {
            h.u64(t.to_bits());
        }
    }
    for r in &report.rejections {
        h.u64(r.id);
        h.u64(r.arrival_s.to_bits());
        h.u64(r.retry_after_s.to_bits());
    }
    h.u64(report.makespan_s.to_bits());
    h.u64(report.batches);
    for (k, v) in report.counters.counters().chain(report.counters.gauges()) {
        h.str(k);
        h.u64(v);
    }
    h.str(&report.to_json());
    h.str(&report.trace.to_chrome_json());
    h.finish()
}

/// Asserts `report` still hashes to the committed `golden` digest.
pub fn assert_golden(report: &ServiceReport, golden: u64, scenario: &str) {
    let got = report_digest(report);
    assert_eq!(
        got, golden,
        "{scenario}: report digest {got:#018x} != golden {golden:#018x}"
    );
}

/// Length-prefixed string, so adjacent fields cannot alias.
fn text(h: &mut Fnv, s: &str) {
    h.u64(s.len() as u64);
    h.str(s);
}

/// FNV-1a digest of everything a telemetry snapshot carries: every
/// counter, gauge and histogram (all buckets and summary fields), and
/// every trace event's track, kind, name, target, args and the bit
/// patterns of its times.
pub fn snapshot_digest(snapshot: &TelemetrySnapshot) -> u64 {
    let mut h = Fnv::new();
    let c = &snapshot.counters;
    for (k, v) in c.counters() {
        text(&mut h, "counter");
        text(&mut h, k);
        h.u64(v);
    }
    for (k, v) in c.gauges() {
        text(&mut h, "gauge");
        text(&mut h, k);
        h.u64(v);
    }
    for (k, hist) in c.histograms() {
        text(&mut h, "histogram");
        text(&mut h, k);
        for v in hist.buckets {
            h.u64(v);
        }
        for v in [hist.count, hist.sum, hist.min, hist.max] {
            h.u64(v);
        }
    }
    for e in &snapshot.trace.events {
        h.u64(e.track.tid());
        text(&mut h, e.kind.cat());
        text(&mut h, &e.name);
        h.u64(e.target.map_or(u64::MAX, |t| t as u64));
        h.u64(e.args.len() as u64);
        for &(k, v) in &e.args {
            text(&mut h, k);
            h.u64(v);
        }
        h.u64(e.start_s.to_bits());
        h.u64(e.end_s.to_bits());
    }
    h.finish()
}

fn hash_resilience(h: &mut Fnv, r: &ResilienceReport) {
    let f = &r.faults;
    for v in [
        f.dma_timeouts,
        f.dma_truncations,
        f.responses_dropped,
        f.responses_duplicated,
        f.unit_hangs,
        f.output_bit_flips,
        r.dma_faults,
        r.timeouts,
        r.corrupt_detected,
        r.unit_hangs,
        r.stale_responses,
        r.retries,
        r.fallbacks,
        r.recovered_targets,
        r.recovered_cycles,
        r.lost_cycles,
    ] {
        h.u64(v);
    }
    h.u64(r.quarantined_units.len() as u64);
    for &u in &r.quarantined_units {
        h.u64(u as u64);
    }
}

/// FNV-1a digest of everything a [`SystemRun`] reports: the bit patterns
/// of `wall_time_s`, `dma_busy_s`, `command_s` and each `unit_busy_s`;
/// `compute_cycles` and `comparisons`; each result's `outcomes`, `cycles`
/// and `best`; the timeline; the resilience report; and the telemetry
/// snapshot's [`snapshot_digest`]. Optional parts hash a presence tag
/// first, so a run without telemetry cannot alias one with it.
pub fn run_digest(run: &SystemRun) -> u64 {
    let mut h = Fnv::new();
    for s in [run.wall_time_s, run.dma_busy_s, run.command_s] {
        h.u64(s.to_bits());
    }
    h.u64(run.unit_busy_s.len() as u64);
    for s in &run.unit_busy_s {
        h.u64(s.to_bits());
    }
    h.u64(run.compute_cycles);
    h.u64(run.comparisons);
    h.u64(run.results.len() as u64);
    for r in &run.results {
        h.u64(r.best as u64);
        let c = &r.cycles;
        for v in [c.load, c.hdc, c.selector, c.drain] {
            h.u64(v);
        }
        h.u64(r.outcomes.len() as u64);
        for &o in &r.outcomes {
            let (realign, offset, pos) = o.into_parts();
            h.u64(realign as u64);
            h.u64(offset as u64);
            h.u64(pos);
        }
    }
    h.u64(run.timeline.len() as u64);
    for e in &run.timeline {
        h.u64(e.unit as u64);
        h.u64(e.target_index as u64);
        h.u64(e.start_s.to_bits());
        h.u64(e.end_s.to_bits());
        h.u64(match e.phase {
            TimelinePhase::Transfer => 0,
            TimelinePhase::Compute => 1,
        });
    }
    match &run.resilience {
        None => text(&mut h, "no resilience"),
        Some(r) => {
            text(&mut h, "resilience");
            hash_resilience(&mut h, r);
        }
    }
    match &run.telemetry {
        None => text(&mut h, "no telemetry"),
        Some(t) => {
            text(&mut h, "telemetry");
            h.u64(snapshot_digest(t));
        }
    }
    h.finish()
}
