//! Golden digests of served reports, shared by the serving suites.
//!
//! A digest folds everything a [`ServiceReport`] carries into one FNV-1a
//! value, so a committed constant pins a scenario bit for bit: every
//! response field (timestamps as `f64` bits), every rejection, the
//! makespan bits and batch count, every counter and gauge, the JSON
//! export and the Chrome trace. The committed constants were computed
//! from the separate single-pool event loop that `RealignService` ran
//! before it became a one-node `FleetService`; a digest may change only
//! with a modeled-output change that explains it.

use ir_system::fuzz::Fnv;
use ir_system::serve::ServiceReport;

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
