//! Cycle-level telemetry for the IR accelerator system.
//!
//! The paper's performance story is entirely about where cycles go: unit
//! busy vs. scheduler idle time (Figure 7), arbiter and DDR contention
//! under 32 units, and DMA overhead. This crate is the measurement layer
//! that makes those claims checkable on every run instead of in ad-hoc
//! bench prints:
//!
//! - [`counters`] — a [`PerfCounters`] registry of monotonic counters,
//!   high-water-mark gauges and fixed-bucket (power-of-two) histograms,
//!   keyed by `block/instance/name` strings with a deterministic order;
//! - [`trace`] — a structured span tracer ([`Tracer`]) whose events
//!   serialize to Chrome trace-event JSON loadable in Perfetto
//!   (<https://ui.perfetto.dev>);
//! - [`report`] — the [`TelemetrySnapshot`] a run attaches to its result,
//!   serializable to CSV/JSON, plus the [`BottleneckReport`] that ranks
//!   stall sources and per-block utilization;
//! - [`json`] — a dependency-free JSON validator used by tests and the CI
//!   smoke job to prove emitted traces parse.
//!
//! # Zero cost when disabled
//!
//! Every recording entry point goes through [`Telemetry`], which is either
//! [`Telemetry::Off`] (all methods return immediately, no allocation ever
//! happens) or [`Telemetry::On`] (counters and spans accumulate). Crucially
//! the instrumentation is *observational*: it never feeds back into any
//! modeled timing, so an enabled run is cycle-identical to a disabled one
//! (asserted by `tests/telemetry.rs`).
//!
//! # Example
//!
//! ```
//! use ir_telemetry::{SpanKind, Telemetry, Track};
//!
//! let mut tele = Telemetry::on();
//! tele.add("hdc", "comparisons", 1024);
//! tele.add_idx("unit", 3, "busy_cycles", 500);
//! tele.gauge_max("dma", "prefetch_depth_hwm", 4);
//! tele.observe("unit", "target_cycles", 500);
//! tele.span(Track::Unit(3), SpanKind::Compute, "t0", Some(0), 0.0, 4e-6);
//! let snapshot = tele.finish().expect("enabled telemetry snapshots");
//! assert_eq!(snapshot.counter("unit/03/busy_cycles"), 500);
//! assert!(snapshot.chrome_trace_json().contains("traceEvents"));
//!
//! // Disabled telemetry costs nothing and yields nothing.
//! let mut off = Telemetry::off();
//! off.add("hdc", "comparisons", 1024);
//! assert!(off.finish().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod json;
pub mod report;
pub mod trace;

pub use counters::{Histogram, PerfCounters};
pub use report::{BottleneckReport, StallSource, TelemetrySnapshot, UnitUtilization};
pub use trace::{SpanKind, Trace, TraceEvent, Tracer, Track};

/// The recording facade every instrumented layer holds: either a live
/// collector or a no-op.
///
/// Recording methods are `#[inline]` and check the variant first, so a
/// disabled run pays one branch per call site and never allocates.
#[derive(Debug, Default)]
pub enum Telemetry {
    /// Recording disabled: every method is a no-op.
    #[default]
    Off,
    /// Recording enabled: counters and spans accumulate in the collector.
    On(Box<Collector>),
}

/// The live state behind [`Telemetry::On`].
#[derive(Debug, Default)]
pub struct Collector {
    /// The counter/gauge/histogram registry.
    pub counters: PerfCounters,
    /// The span tracer.
    pub tracer: Tracer,
    /// Reused to build each `block[/idx]/name` key, so recording into an
    /// existing key allocates nothing.
    key: String,
}

impl Telemetry {
    /// A disabled (no-op) handle.
    pub fn off() -> Self {
        Telemetry::Off
    }

    /// An enabled handle with an empty registry and tracer.
    pub fn on() -> Self {
        Telemetry::On(Box::default())
    }

    /// An enabled or disabled handle, by flag.
    pub fn with_enabled(enabled: bool) -> Self {
        if enabled {
            Telemetry::on()
        } else {
            Telemetry::off()
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        matches!(self, Telemetry::On(_))
    }

    /// Adds `n` to the counter `block/name`.
    #[inline]
    pub fn add(&mut self, block: &str, name: &str, n: u64) {
        if let Telemetry::On(c) = self {
            let key = PerfCounters::write_key(&mut c.key, block, None, name);
            c.counters.add(key, n);
        }
    }

    /// Adds `n` to the per-instance counter `block/<idx>/name`.
    #[inline]
    pub fn add_idx(&mut self, block: &str, idx: usize, name: &str, n: u64) {
        if let Telemetry::On(c) = self {
            let key = PerfCounters::write_key(&mut c.key, block, Some(idx), name);
            c.counters.add(key, n);
        }
    }

    /// Raises the high-water-mark gauge `block/name` to at least `v`.
    #[inline]
    pub fn gauge_max(&mut self, block: &str, name: &str, v: u64) {
        if let Telemetry::On(c) = self {
            let key = PerfCounters::write_key(&mut c.key, block, None, name);
            c.counters.gauge_max(key, v);
        }
    }

    /// Records `v` into the histogram `block/name`.
    #[inline]
    pub fn observe(&mut self, block: &str, name: &str, v: u64) {
        if let Telemetry::On(c) = self {
            let key = PerfCounters::write_key(&mut c.key, block, None, name);
            c.counters.observe(key, v);
        }
    }

    /// Records a `[start_s, end_s]` span on `track`. Spans with
    /// non-positive duration are dropped.
    #[inline]
    pub fn span(
        &mut self,
        track: Track,
        kind: SpanKind,
        name: &str,
        target: Option<usize>,
        start_s: f64,
        end_s: f64,
    ) {
        if let Telemetry::On(c) = self {
            c.tracer.span(track, kind, name, target, start_s, end_s);
        }
    }

    /// Like [`Telemetry::span`] with extra `(key, value)` arguments that
    /// surface in the Perfetto args panel.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span_args(
        &mut self,
        track: Track,
        kind: SpanKind,
        name: &str,
        target: Option<usize>,
        start_s: f64,
        end_s: f64,
        args: &[(&'static str, u64)],
    ) {
        if let Telemetry::On(c) = self {
            c.tracer
                .span_args(track, kind, name, target, start_s, end_s, args);
        }
    }

    /// Consumes the handle and returns the snapshot, or `None` when
    /// disabled.
    pub fn finish(self) -> Option<TelemetrySnapshot> {
        match self {
            Telemetry::Off => None,
            Telemetry::On(c) => Some(TelemetrySnapshot::new(c.counters, c.tracer.into_trace())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_allocates_nothing() {
        let mut tele = Telemetry::off();
        tele.add("a", "b", 1);
        tele.add_idx("a", 0, "b", 1);
        tele.gauge_max("a", "g", 9);
        tele.observe("a", "h", 9);
        tele.span(Track::Host, SpanKind::Compute, "x", None, 0.0, 1.0);
        assert!(!tele.is_enabled());
        assert!(tele.finish().is_none());
    }

    #[test]
    fn on_accumulates() {
        let mut tele = Telemetry::on();
        assert!(tele.is_enabled());
        tele.add("hdc", "comparisons", 10);
        tele.add("hdc", "comparisons", 5);
        tele.add_idx("unit", 7, "busy_cycles", 3);
        tele.gauge_max("q", "hwm", 2);
        tele.gauge_max("q", "hwm", 1);
        tele.observe("u", "cyc", 100);
        tele.span(Track::Unit(7), SpanKind::Compute, "t", Some(0), 0.0, 1e-6);
        let snap = tele.finish().unwrap();
        assert_eq!(snap.counter("hdc/comparisons"), 15);
        assert_eq!(snap.counter("unit/07/busy_cycles"), 3);
        assert_eq!(snap.gauge("q/hwm"), 2);
        assert_eq!(snap.trace.events.len(), 1);
    }

    #[test]
    fn with_enabled_matches_flag() {
        assert!(Telemetry::with_enabled(true).is_enabled());
        assert!(!Telemetry::with_enabled(false).is_enabled());
    }
}
