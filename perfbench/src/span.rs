//! Host-time spans the benchmark records around its own calls into each
//! layer of the simulator.
//!
//! A span holds a name, a start, an end, its parent span and the id of the
//! run (one set-up or one timed pass) it belongs to. Spans are kept in
//! memory and written once, at exit, as Chrome trace-event JSON. A
//! disabled [`Tracer`] records nothing: [`Scope::span`] then only calls
//! its closure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ir_telemetry::json::escape_json_string;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer or harness step, e.g. `oracle.iracc`.
    pub name: &'static str,
    /// The set-up or pass this span belongs to.
    pub run: u32,
    /// Small id of the OS thread that recorded the span.
    pub thread: u32,
    /// Call-specific detail (target index, unit count, ...).
    pub arg: u64,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A top-level scope for run `run`.
    pub fn root(&self, run: u32) -> Scope<'_> {
        Scope {
            tracer: self,
            parent: None,
            run,
        }
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("no span writer panicked").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

/// Where new spans attach: a tracer, a parent span and a run id.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    tracer: &'a Tracer,
    parent: Option<u32>,
    run: u32,
}

impl<'a> Scope<'a> {
    /// Runs `f` inside a span named `name`; `f` receives the scope for
    /// child spans.
    pub fn span<T>(&self, name: &'static str, arg: u64, f: impl FnOnce(Scope<'a>) -> T) -> T {
        let tracer = self.tracer;
        if !tracer.enabled {
            return f(*self);
        }
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let out = f(Scope {
            parent: Some(id),
            ..*self
        });
        let end_ns = tracer.now_ns();
        let span = Span {
            id,
            parent: self.parent,
            name,
            run: self.run,
            thread: THREAD.with(|t| *t),
            arg,
            start_ns,
            end_ns,
        };
        tracer
            .spans
            .lock()
            .expect("no span writer panicked")
            .push(span);
        out
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Chrome trace-event JSON (Perfetto loads it): one complete event per
/// span on its recording thread, with id, parent and run in the args.
pub fn to_chrome_json(spans: &[Span], process: &str) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        escape_json_string(process)
    ));
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"cat\":\"host\",\
             \"name\":{},\"args\":{{\"id\":{},\"parent\":{parent},\"run\":{},\"arg\":{}}}}}",
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            escape_json_string(s.name),
            s.id,
            s.run,
            s.arg,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            run: 0,
            thread: 0,
            arg: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        // root [0,100) has children [10,30) and [20,50) (overlapping, as
        // two worker threads produce) and [60,70); child 1 has its own
        // child [12,18).
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 60, 70),
            span(4, Some(1), 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100 - 40 - 10);
        assert_eq!(st[&1], 20 - 6);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 6);
        // Self times tile the root: their sum is the root's duration
        // whenever children nest properly on one thread.
        let tiled = [span(0, None, 0, 10), span(1, Some(0), 2, 5)];
        let st = self_times(&tiled);
        assert_eq!(st.values().sum::<u64>(), 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 5, 15)];
        assert_eq!(self_times(&spans)[&0], 5);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let off = Tracer::new(false);
        assert_eq!(off.root(0).span("a", 0, |s| s.span("b", 0, |_| 7)), 7);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        on.root(3).span("outer", 1, |s| s.span("inner", 2, |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((outer.run, inner.run), (3, 3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let json = to_chrome_json(&spans, "test");
        ir_telemetry::json::validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"ph\":\"X\""));
    }
}
