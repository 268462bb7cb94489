//! Heterogeneous shard pools and multi-tenant admission: a mixed-tenant
//! trace spanning all four shape families routes across a pool whose
//! shards each advertise one family, every response echoes its request's
//! family and tenant, per-tenant QoS counters add up, and the whole run
//! is deterministic. Target sizes are scaled down (full-size long-read
//! and deep-panel targets cost ~1e9 comparisons each); routing and
//! admission only read the family tag and the tenant index, never the
//! target's byte size. Each served report (all fault-free) also hashes
//! to a committed golden digest (`common::report_digest`), the
//! fault-off half of the verdict frozen in `tests/serve.rs`.

mod common;

use common::assert_golden;
use ir_system::genome::RealignmentTarget;
use ir_system::serve::{RealignService, Request, ServeConfig, ServeError, ShardSpec, TenantQuota};
use ir_system::workloads::{ShapeFamily, WorkloadConfig, WorkloadGenerator};

const TENANTS: usize = 3;
const PER_FAMILY: usize = 6;

/// Golden digest of the mixed-tenant heterogeneous-pool run.
const GOLDEN_HETERO: u64 = 0x9062_b2f3_51cb_05c9;
/// Golden digest of the pool with no long-read shard.
const GOLDEN_UNROUTABLE: u64 = 0xc2cc_8884_00d2_ade7;
/// Golden digest of the single-slot tenant-quota burst.
const GOLDEN_OVER_QUOTA: u64 = 0xeed5_be0c_b404_19c2;

/// A family-flavored but miniature workload config: same profile knobs,
/// target dimensions shrunk so the datapath work stays test-sized.
fn mini_targets(family: ShapeFamily, count: usize, seed: u64) -> Vec<RealignmentTarget> {
    let base = family.profile().config(1e-5);
    let config = match family {
        ShapeFamily::ShortReadGermline => WorkloadConfig {
            read_len: 24,
            min_consensus_len: 32,
            max_consensus_len: 96,
            min_reads: 2,
            max_reads: 8,
            ..base
        },
        ShapeFamily::LongRead => WorkloadConfig {
            read_len: 48,
            min_consensus_len: 64,
            max_consensus_len: 160,
            min_reads: 2,
            max_reads: 4,
            ..base
        },
        ShapeFamily::DeepPanel => WorkloadConfig {
            read_len: 12,
            min_consensus_len: 24,
            max_consensus_len: 64,
            min_reads: 8,
            max_reads: 24,
            ..base
        },
        ShapeFamily::Metagenomic => WorkloadConfig {
            read_len: 12,
            min_consensus_len: 16,
            max_consensus_len: 64,
            min_reads: 2,
            max_reads: 12,
            ..base
        },
    };
    WorkloadGenerator::new(config).targets(count, seed)
}

/// One shard per family, in declaration order, each with its re-derived
/// per-shape buffer geometry.
fn hetero_config() -> ServeConfig {
    let base = ServeConfig::default();
    let pool: Vec<ShardSpec> = ShapeFamily::ALL
        .iter()
        .map(|&f| ShardSpec::for_families(&[f], &base.params, base.scheduling).unwrap())
        .collect();
    ServeConfig {
        shards: pool.len(),
        pool: Some(pool),
        tenants: Some(vec![TenantQuota { max_queued: 64 }; TENANTS]),
        ..base
    }
}

/// Interleaved trace: families cycle per request, tenants cycle on a
/// different stride, arrivals spaced so nothing is shed.
fn mixed_requests() -> Vec<Request> {
    let per_family: Vec<Vec<RealignmentTarget>> = ShapeFamily::ALL
        .iter()
        .map(|&f| mini_targets(f, PER_FAMILY, 0xB0B + f.index() as u64))
        .collect();
    let mut requests = Vec::new();
    for slot in 0..PER_FAMILY {
        for (family, targets) in ShapeFamily::ALL.iter().copied().zip(&per_family) {
            let i = requests.len();
            requests.push(
                Request::new(i as u64, i as f64 * 120e-6, targets[slot].clone())
                    .with_family(family)
                    .with_tenant(i % TENANTS),
            );
        }
    }
    requests
}

#[test]
fn mixed_tenant_trace_routes_across_the_heterogeneous_pool() {
    let requests = mixed_requests();
    let offered = requests.len();
    let mut service = RealignService::new(hetero_config()).unwrap();
    let report = service.run(requests).unwrap();

    assert_eq!(
        report.completed(),
        offered as u64,
        "nothing is shed at this rate"
    );
    assert!(report.rejections.is_empty());
    assert_eq!(report.counters.counter("serve/unroutable"), 0);

    // Every shard advertises exactly one family, so each must have run
    // batches for its quarter of the trace — family-pure batching means
    // no shard can sit idle while another serves a foreign family.
    for shard in 0..ShapeFamily::ALL.len() {
        assert!(
            report
                .counters
                .counter(&format!("serve/{shard:02}/batches"))
                > 0,
            "shard {shard} never ran a batch"
        );
        assert_eq!(
            report
                .counters
                .counter(&format!("serve/{shard:02}/requests")),
            PER_FAMILY as u64,
            "shard {shard} served a foreign family's requests"
        );
    }

    // Responses echo the request's family and tenant verbatim.
    for r in &report.responses {
        assert_eq!(
            r.family,
            ShapeFamily::ALL[r.id as usize % ShapeFamily::ALL.len()]
        );
        assert_eq!(r.tenant, r.id as usize % TENANTS);
    }

    // Per-tenant counters partition the totals exactly.
    let mut accepted = 0;
    let mut completed = 0;
    for t in 0..TENANTS {
        accepted += report
            .counters
            .counter(&format!("serve/tenant{t}/accepted"));
        completed += report
            .counters
            .counter(&format!("serve/tenant{t}/completed"));
        assert_eq!(
            report
                .counters
                .counter(&format!("serve/tenant{t}/rejected")),
            0
        );
    }
    assert_eq!(accepted, offered as u64);
    assert_eq!(completed, offered as u64);
    assert_golden(&report, GOLDEN_HETERO, "heterogeneous pool with tenants");
}

#[test]
fn heterogeneous_runs_are_deterministic() {
    let run = || {
        let mut service = RealignService::new(hetero_config()).unwrap();
        service.run(mixed_requests()).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn families_without_a_shard_are_rejected_as_unroutable() {
    let base = ServeConfig::default();
    // Pool holds only a short-read shard: long-read requests have nowhere
    // to go and must be shed with a retry-after, not queued forever.
    let config = ServeConfig {
        shards: 1,
        pool: Some(vec![ShardSpec::for_families(
            &[ShapeFamily::ShortReadGermline],
            &base.params,
            base.scheduling,
        )
        .unwrap()]),
        ..base
    };
    let targets = mini_targets(ShapeFamily::LongRead, 4, 3);
    let requests: Vec<Request> = targets
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            Request::new(i as u64, i as f64 * 100e-6, t).with_family(ShapeFamily::LongRead)
        })
        .collect();
    let mut service = RealignService::new(config).unwrap();
    let report = service.run(requests).unwrap();
    assert_eq!(report.completed(), 0);
    assert_eq!(report.rejections.len(), 4);
    assert_eq!(report.counters.counter("serve/unroutable"), 4);
    assert!(report.rejections.iter().all(|r| r.retry_after_s > 0.0));
    assert_golden(&report, GOLDEN_UNROUTABLE, "unroutable family");
}

#[test]
fn over_quota_tenants_are_shed_at_admission() {
    let config = ServeConfig {
        tenants: Some(vec![TenantQuota { max_queued: 1 }]),
        ..ServeConfig::default()
    };
    // A same-instant burst from one tenant with a single-slot quota:
    // the first request is admitted, the rest shed before any completes.
    let targets = mini_targets(ShapeFamily::ShortReadGermline, 5, 11);
    let requests: Vec<Request> = targets
        .into_iter()
        .enumerate()
        .map(|(i, t)| Request::new(i as u64, 0.0, t))
        .collect();
    let mut service = RealignService::new(config).unwrap();
    let report = service.run(requests).unwrap();
    assert_eq!(report.completed(), 1);
    assert_eq!(report.rejections.len(), 4);
    assert_eq!(report.counters.counter("serve/tenant0/accepted"), 1);
    assert_eq!(report.counters.counter("serve/tenant0/rejected"), 4);
    assert_eq!(report.counters.counter("serve/tenant0/completed"), 1);
    assert_golden(&report, GOLDEN_OVER_QUOTA, "over-quota tenant");
}

#[test]
fn out_of_range_tenants_are_a_typed_error() {
    let config = ServeConfig {
        tenants: Some(vec![TenantQuota { max_queued: 8 }; 2]),
        ..ServeConfig::default()
    };
    let target = mini_targets(ShapeFamily::ShortReadGermline, 1, 21).remove(0);
    let requests = vec![Request::new(0, 0.0, target).with_tenant(5)];
    let mut service = RealignService::new(config).unwrap();
    match service.run(requests) {
        Err(ServeError::UnknownTenant { tenant, tenants }) => {
            assert_eq!(tenant, 5);
            assert_eq!(tenants, 2);
        }
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
}
