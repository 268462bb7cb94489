//! Structured span tracing with Chrome trace-event JSON output.
//!
//! Every span is a *complete* event (`"ph": "X"`) on a named track: the
//! DMA engine, one IR unit, the host control program, or one fleet
//! instance. The serialized form is the Chrome trace-event format, which
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` both load
//! directly: open the UI and drop the emitted `.trace.json` file on it.
//!
//! Timestamps are recorded in simulated seconds and serialized in
//! microseconds (the unit the format requires).

use crate::json::escape_json_string;

/// The track (rendered as a named thread) a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// The PCIe DMA engine.
    Dma,
    /// One IR unit of the sea.
    Unit(usize),
    /// The host control program (command issue, response drain).
    Host,
    /// One service shard (a simulated FPGA behind the batching frontend).
    Shard(usize),
    /// One fleet instance (cloud-level schedules).
    Instance(usize),
}

impl Track {
    /// Stable thread id for the Chrome trace (`tid`).
    pub fn tid(self) -> u64 {
        match self {
            Track::Dma => 0,
            Track::Unit(u) => 1 + u as u64,
            Track::Shard(s) => 500 + s as u64,
            Track::Host => 900,
            Track::Instance(i) => 1000 + i as u64,
        }
    }

    /// Human-readable track name shown by Perfetto.
    pub fn name(self) -> String {
        match self {
            Track::Dma => "dma".to_string(),
            Track::Unit(u) => format!("unit {u}"),
            Track::Shard(s) => format!("shard {s}"),
            Track::Host => "host".to_string(),
            Track::Instance(i) => format!("instance {i}"),
        }
    }
}

/// What a span represents (serialized as the event category).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// PCIe DMA transfer of input data.
    Transfer,
    /// An IR unit computing a target.
    Compute,
    /// A resource waiting on something (data, config, a batch flush).
    Stall,
    /// A fleet-level job (one chromosome on one instance).
    Job,
    /// Restart overhead after a spot interruption.
    Restart,
}

impl SpanKind {
    /// The trace-event category string.
    pub fn cat(self) -> &'static str {
        match self {
            SpanKind::Transfer => "transfer",
            SpanKind::Compute => "compute",
            SpanKind::Stall => "stall",
            SpanKind::Job => "job",
            SpanKind::Restart => "restart",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Track the span renders on.
    pub track: Track,
    /// Span category.
    pub kind: SpanKind,
    /// Span label.
    pub name: String,
    /// Index of the target this span serves, if any.
    pub target: Option<usize>,
    /// Start, simulated seconds.
    pub start_s: f64,
    /// End, simulated seconds.
    pub end_s: f64,
    /// Extra arguments surfaced in the Perfetto args panel.
    pub args: Vec<(&'static str, u64)>,
}

/// An ordered collection of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Spans in recording order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Serializes the trace as Chrome trace-event JSON (an object with a
    /// `traceEvents` array plus thread-name metadata), loadable in
    /// Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, s: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&s);
        };

        // Thread-name metadata, one per distinct track, in tid order.
        let mut tracks: Vec<Track> = self.events.iter().map(|e| e.track).collect();
        tracks.sort_by_key(|t| t.tid());
        tracks.dedup();
        push(
            &mut out,
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"ir-system\"}}"
                .to_string(),
        );
        for t in &tracks {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    t.tid(),
                    escape_json_string(&t.name()),
                ),
            );
        }

        for e in &self.events {
            let ts_us = e.start_s * 1e6;
            let dur_us = (e.end_s - e.start_s) * 1e6;
            let mut args = String::new();
            if let Some(t) = e.target {
                args.push_str(&format!("\"target\":{t}"));
            }
            for (k, v) in &e.args {
                if !args.is_empty() {
                    args.push(',');
                }
                args.push_str(&format!("{}:{v}", escape_json_string(k)));
            }
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\
                     \"dur\":{dur_us:.3},\"cat\":{},\"name\":{},\"args\":{{{args}}}}}",
                    e.track.tid(),
                    escape_json_string(e.kind.cat()),
                    escape_json_string(&e.name),
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

/// The span recorder behind [`crate::Telemetry`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// Records a span; non-positive durations are dropped.
    pub fn span(
        &mut self,
        track: Track,
        kind: SpanKind,
        name: &str,
        target: Option<usize>,
        start_s: f64,
        end_s: f64,
    ) {
        self.span_args(track, kind, name, target, start_s, end_s, &[]);
    }

    /// Records a span with extra arguments; non-positive durations are
    /// dropped.
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
        if end_s <= start_s {
            return;
        }
        self.span_args_owned(track, kind, name.to_string(), target, start_s, end_s, args);
    }

    /// [`Self::span_args`] for a name the caller has just built (a
    /// `format!` result): the event takes the `String` instead of a copy.
    #[allow(clippy::too_many_arguments)]
    pub fn span_args_owned(
        &mut self,
        track: Track,
        kind: SpanKind,
        name: String,
        target: Option<usize>,
        start_s: f64,
        end_s: f64,
        args: &[(&'static str, u64)],
    ) {
        if end_s <= start_s {
            return;
        }
        self.events.push(TraceEvent {
            track,
            kind,
            name,
            target,
            start_s,
            end_s,
            args: args.to_vec(),
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the tracer into its trace.
    pub fn into_trace(self) -> Trace {
        Trace {
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    fn sample_trace() -> Trace {
        let mut t = Tracer::default();
        t.span(
            Track::Dma,
            SpanKind::Transfer,
            "xfer t0",
            Some(0),
            0.0,
            1e-6,
        );
        t.span_args(
            Track::Unit(2),
            SpanKind::Compute,
            "t0",
            Some(0),
            1e-6,
            5e-6,
            &[("cycles", 500), ("comparisons", 12_000)],
        );
        t.span(
            Track::Unit(2),
            SpanKind::Stall,
            "dma wait",
            Some(1),
            5e-6,
            6e-6,
        );
        t.into_trace()
    }

    #[test]
    fn tids_are_distinct_per_track() {
        assert_eq!(Track::Dma.tid(), 0);
        assert_eq!(Track::Unit(0).tid(), 1);
        assert_eq!(Track::Unit(31).tid(), 32);
        assert_eq!(Track::Shard(0).tid(), 500);
        assert_eq!(Track::Shard(7).tid(), 507);
        assert_eq!(Track::Host.tid(), 900);
        assert_eq!(Track::Instance(3).tid(), 1003);
    }

    #[test]
    fn zero_duration_spans_are_dropped() {
        let mut t = Tracer::default();
        t.span(Track::Host, SpanKind::Stall, "empty", None, 1.0, 1.0);
        t.span(Track::Host, SpanKind::Stall, "negative", None, 2.0, 1.0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn chrome_json_is_valid_and_carries_metadata() {
        let json = sample_trace().to_chrome_json();
        validate_json(&json).expect("trace JSON must parse");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"unit 2\""));
        assert!(json.contains("\"comparisons\":12000"));
        assert!(json.contains("\"cat\":\"compute\""));
    }

    #[test]
    fn empty_trace_serializes_validly() {
        let json = Trace::default().to_chrome_json();
        validate_json(&json).expect("empty trace JSON must parse");
    }

    #[test]
    fn timestamps_serialize_in_microseconds() {
        let json = sample_trace().to_chrome_json();
        // The compute span starts at 1 µs and lasts 4 µs.
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":4.000"));
    }
}
