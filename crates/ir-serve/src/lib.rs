//! The serving layer: an async batched realignment service in front of a
//! sharded pool of simulated accelerator backends.
//!
//! The paper's end goal is cloud deployment — IRACC exists so INDEL
//! realignment can be served cheaply at datacenter scale (§6, the F1
//! fleet and cost model). This crate is the front door that was missing
//! from the datapath-only stack: it accepts concurrent requests, applies
//! admission control, coalesces requests into accelerator-sized batches
//! and schedules them across worker shards, each owning one
//! [`ir_fpga::AcceleratedSystem`]. There is one event loop:
//! [`RealignService`] is a one-node [`FleetService`] with zero hop
//! latency, and the fleet scales the same node loop out to many nodes.
//!
//! The pipeline, in request order:
//!
//! 1. **Admission** — a bounded [`SubmissionQueue`]. Depth at or above
//!    the watermark rejects with a retry-after hint (backpressure)
//!    instead of queueing unboundedly.
//! 2. **Batching** — the adaptive [`BatchPolicy`]: flush when
//!    `max_batch` requests are waiting (a full batch occupies the whole
//!    sea of units) *or* when the oldest request has waited past the
//!    flush deadline, whichever comes first.
//! 3. **Sharding** — idle shards take ready batches in index order. A
//!    clean shard runs the oracle-backed fast path; with fault injection
//!    enabled each batch runs the host resilience layer, whose software
//!    fallback is the service's degraded tier.
//!
//! # Heterogeneous pools and multi-tenancy
//!
//! Requests carry a workload [`ir_workloads::ShapeFamily`] and a tenant
//! index. The service keeps one submission queue per family, so batches
//! are family-pure, and routes each family only to shards that advertise
//! it. With [`ServeConfig::pool`] set, each shard is built from a
//! [`ShardSpec`] whose buffer geometry and unit count are re-derived for
//! its families' shape envelope (long-read shards trade unit count for
//! kilobase buffers; deep-panel shards for 1024-read coverage). With
//! [`ServeConfig::tenants`] set, per-tenant admission quotas shed
//! over-quota load and `serve/tenant<i>/*` counters expose per-tenant
//! QoS. Both default to `None`, which reproduces the homogeneous
//! single-family service byte for byte.
//!
//! # Determinism
//!
//! The whole service runs in **virtual time** on an
//! [`ir_sim::EventQueue`] with stable `(time, priority, seq)` ordering:
//! arrivals are timestamps in the request stream (see
//! `ir_workloads::ArrivalProcess`), batch completions are scheduled at
//! `dispatch + accelerator wall time`, and no host clock is ever read.
//! A [`ServiceReport`] is therefore a pure function of
//! `(ServeConfig, requests)`; the only threading
//! ([`ServeConfig::threads`]) pre-warms per-batch functional oracles
//! whose merge is deterministic, so single- and multi-threaded runs are
//! bitwise identical. `tests/serve.rs` and the CI `serve-smoke` job pin
//! both properties.
//!
//! # Example
//!
//! ```
//! use ir_serve::{RealignService, Request, ServeConfig};
//! use ir_workloads::{ArrivalProcess, WorkloadConfig, WorkloadGenerator};
//!
//! let targets = WorkloadGenerator::new(WorkloadConfig {
//!     scale: 1e-4,
//!     read_len: 40,
//!     min_consensus_len: 60,
//!     max_consensus_len: 120,
//!     min_reads: 4,
//!     max_reads: 8,
//!     ..WorkloadConfig::default()
//! })
//! .targets(16, 7);
//! let times = ArrivalProcess::poisson(11, 20_000.0).times(targets.len());
//! let requests: Vec<Request> = targets
//!     .into_iter()
//!     .zip(times)
//!     .enumerate()
//!     .map(|(i, (t, at))| Request::new(i as u64, at, t))
//!     .collect();
//!
//! let mut service = RealignService::new(ServeConfig::default()).unwrap();
//! let report = service.run(requests).unwrap();
//! assert_eq!(report.completed(), 16);
//! assert!(report.throughput_rps() > 0.0);
//! ```
//!
//! # Errors
//!
//! The hot path never panics on bad input: construction, validation and
//! the event loop all report typed [`ServeError`]s, so harnesses like the
//! `ir-fuzz` differential fuzzer observe violations as values instead of
//! aborts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod config;
mod error;
mod fleet;
mod queue;
mod request;
mod service;
mod shard;

pub use batcher::{BatchPolicy, FlushVerdict};
pub use config::{FaultInjection, ServeConfig, ShardSpec, TenantQuota};
pub use error::ServeError;
pub use fleet::{
    Autoscaler, AutoscalerConfig, FleetConfig, FleetReport, FleetService, ScaleDecision,
    SpotProfile,
};
pub use queue::{Admission, SubmissionQueue};
pub use request::{Rejection, Request, Response};
pub use service::{RealignService, ServiceReport};
pub use shard::{BatchOutcome, Shard};
