//! The per-run telemetry snapshot and the bottleneck report derived from
//! it.
//!
//! A [`TelemetrySnapshot`] is what a run hands back when telemetry was
//! enabled: the full counter registry plus the span trace. It serializes
//! to a `kind,key,value` CSV (diff-stable, key-ordered) and to a plain
//! JSON document, and the Chrome trace is available via
//! [`TelemetrySnapshot::chrome_trace_json`].
//!
//! The [`BottleneckReport`] interprets the counter taxonomy — the
//! `unit/<u>/{busy,stall,idle,quarantined,total}_cycles` convention plus
//! the block-level conflict/stall counters — into the ranked stall table
//! the `telemetry_report` bench binary prints.

use crate::counters::PerfCounters;
use crate::json::escape_json_string;
use crate::trace::Trace;

/// Everything a telemetry-enabled run recorded.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// The counter/gauge/histogram registry.
    pub counters: PerfCounters,
    /// The recorded span trace.
    pub trace: Trace,
}

impl TelemetrySnapshot {
    /// Bundles a registry and a trace into a snapshot.
    pub fn new(counters: PerfCounters, trace: Trace) -> Self {
        TelemetrySnapshot { counters, trace }
    }

    /// Counter value by key (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.counter(key)
    }

    /// Gauge value by key (0 if absent).
    pub fn gauge(&self, key: &str) -> u64 {
        self.counters.gauge(key)
    }

    /// The trace serialized as Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_trace_json(&self) -> String {
        self.trace.to_chrome_json()
    }

    /// Whether two snapshots are *bitwise* identical: all counters,
    /// gauges and histograms equal, and every trace span equal with its
    /// timestamps compared by bit pattern rather than float equality
    /// (`-0.0 != 0.0`, `NaN == NaN`). This is the equivalence a run over
    /// a warm oracle is held to against a cold run in
    /// `tests/event_parity.rs`.
    pub fn bitwise_eq(&self, other: &TelemetrySnapshot) -> bool {
        self.counters == other.counters
            && self.trace.events.len() == other.trace.events.len()
            && self
                .trace
                .events
                .iter()
                .zip(&other.trace.events)
                .all(|(a, b)| {
                    a.track == b.track
                        && a.kind == b.kind
                        && a.name == b.name
                        && a.target == b.target
                        && a.args == b.args
                        && a.start_s.to_bits() == b.start_s.to_bits()
                        && a.end_s.to_bits() == b.end_s.to_bits()
                })
    }

    /// Serializes the registry as `kind,key,value` CSV rows (header
    /// included). Histograms expand to their summary stats plus non-empty
    /// buckets keyed by bucket lower bound.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,key,value\n");
        for (k, v) in self.counters.counters() {
            out.push_str(&format!("counter,{k},{v}\n"));
        }
        for (k, v) in self.counters.gauges() {
            out.push_str(&format!("gauge,{k},{v}\n"));
        }
        for (k, h) in self.counters.histograms() {
            out.push_str(&format!("histogram,{k}/count,{}\n", h.count));
            out.push_str(&format!("histogram,{k}/sum,{}\n", h.sum));
            if h.count > 0 {
                out.push_str(&format!("histogram,{k}/min,{}\n", h.min));
                out.push_str(&format!("histogram,{k}/max,{}\n", h.max));
            }
            for (i, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    out.push_str(&format!(
                        "histogram,{k}/ge_{},{n}\n",
                        crate::counters::Histogram::bucket_lo(i)
                    ));
                }
            }
        }
        out
    }

    /// Serializes the registry as a JSON object with `counters`, `gauges`
    /// and `histograms` members.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (k, v) in self.counters.counters() {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", escape_json_string(k)));
        }
        out.push_str("},\"gauges\":{");
        first = true;
        for (k, v) in self.counters.gauges() {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", escape_json_string(k)));
        }
        out.push_str("},\"histograms\":{");
        first = true;
        for (k, h) in self.counters.histograms() {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                escape_json_string(k),
                h.count,
                h.sum,
                if h.count > 0 { h.min } else { 0 },
                h.max,
                buckets.join(",")
            ));
        }
        out.push_str("}}");
        out
    }

    /// Derives the ranked bottleneck report from the counter taxonomy.
    pub fn bottleneck_report(&self) -> BottleneckReport {
        BottleneckReport::from_counters(&self.counters)
    }
}

/// One named source of lost cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct StallSource {
    /// Human-readable source label.
    pub name: String,
    /// Cycles attributed to this source.
    pub cycles: u64,
    /// Fraction of the total unit-cycle pool.
    pub fraction: f64,
}

/// Per-unit cycle breakdown pulled from `unit/<u>/*_cycles` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitUtilization {
    /// Unit index.
    pub unit: usize,
    /// Cycles spent computing targets.
    pub busy_cycles: u64,
    /// Cycles stalled on DMA/config/response flush.
    pub stall_cycles: u64,
    /// Cycles idle (no work assigned, or waiting out a batch).
    pub idle_cycles: u64,
    /// Cycles lost to quarantine after repeated faults.
    pub quarantined_cycles: u64,
    /// Total wall cycles for the run.
    pub total_cycles: u64,
}

impl UnitUtilization {
    /// Busy cycles over total cycles (0.0 when total is zero).
    pub fn busy_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.total_cycles as f64
        }
    }
}

/// Ranked stall sources and per-unit utilization for one run.
#[derive(Debug, Clone, Default)]
pub struct BottleneckReport {
    /// Sum of `total_cycles` across units (the cycle pool fractions are
    /// relative to).
    pub total_unit_cycles: u64,
    /// Stall sources with non-zero cycles, largest first.
    pub stalls: Vec<StallSource>,
    /// Per-unit breakdowns in unit order.
    pub units: Vec<UnitUtilization>,
}

impl BottleneckReport {
    /// Builds the report from a registry following the standard counter
    /// taxonomy.
    pub fn from_counters(c: &PerfCounters) -> Self {
        let mut units: Vec<UnitUtilization> = Vec::new();
        for (key, v) in c.counters_with_prefix("unit/") {
            // key = unit/<idx>/<name>
            let mut parts = key.splitn(3, '/');
            let (_, idx, name) = (parts.next(), parts.next(), parts.next());
            let (Some(idx), Some(name)) = (idx, name) else {
                continue;
            };
            let Ok(idx) = idx.parse::<usize>() else {
                continue;
            };
            while units.len() <= idx {
                let unit = units.len();
                units.push(UnitUtilization {
                    unit,
                    ..UnitUtilization::default()
                });
            }
            let u = &mut units[idx];
            match name {
                "busy_cycles" => u.busy_cycles = v,
                "stall_cycles" => u.stall_cycles = v,
                "idle_cycles" => u.idle_cycles = v,
                "quarantined_cycles" => u.quarantined_cycles = v,
                "total_cycles" => u.total_cycles = v,
                _ => {}
            }
        }

        let total_unit_cycles: u64 = units.iter().map(|u| u.total_cycles).sum();
        let agg = |f: fn(&UnitUtilization) -> u64| units.iter().map(f).sum::<u64>();
        let mut stalls: Vec<(String, u64)> = vec![
            (
                "unit stall (dma wait + cfg + flush)".into(),
                agg(|u| u.stall_cycles),
            ),
            ("scheduler idle".into(), agg(|u| u.idle_cycles)),
            ("quarantined units".into(), agg(|u| u.quarantined_cycles)),
            (
                "5:1 arbiter conflicts".into(),
                c.counter("arbiter5/conflict_cycles"),
            ),
            ("dma engine stall".into(), c.counter("dma/stall_cycles")),
            (
                "host command issue".into(),
                c.counter("host/command_cycles"),
            ),
        ];
        stalls.retain(|(_, cycles)| *cycles > 0);
        stalls.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let stalls = stalls
            .into_iter()
            .map(|(name, cycles)| StallSource {
                name,
                cycles,
                fraction: if total_unit_cycles == 0 {
                    0.0
                } else {
                    cycles as f64 / total_unit_cycles as f64
                },
            })
            .collect();

        BottleneckReport {
            total_unit_cycles,
            stalls,
            units,
        }
    }

    /// Mean busy fraction across units (0.0 with no units).
    pub fn mean_busy_fraction(&self) -> f64 {
        if self.units.is_empty() {
            0.0
        } else {
            self.units.iter().map(|u| u.busy_fraction()).sum::<f64>() / self.units.len() as f64
        }
    }

    /// Renders the report as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("total unit-cycles: {}\n", self.total_unit_cycles));
        out.push_str("top stall sources:\n");
        if self.stalls.is_empty() {
            out.push_str("  (none — fully busy)\n");
        }
        for (i, s) in self.stalls.iter().enumerate() {
            out.push_str(&format!(
                "  {}. {:<36} {:>14} cycles  ({:5.1}%)\n",
                i + 1,
                s.name,
                s.cycles,
                s.fraction * 100.0
            ));
        }
        if !self.units.is_empty() {
            let min = self
                .units
                .iter()
                .min_by(|a, b| a.busy_fraction().total_cmp(&b.busy_fraction()))
                .expect("non-empty");
            let max = self
                .units
                .iter()
                .max_by(|a, b| a.busy_fraction().total_cmp(&b.busy_fraction()))
                .expect("non-empty");
            out.push_str(&format!(
                "unit utilization: mean {:5.1}%  min {:5.1}% (unit {:02})  max {:5.1}% (unit {:02})\n",
                self.mean_busy_fraction() * 100.0,
                min.busy_fraction() * 100.0,
                min.unit,
                max.busy_fraction() * 100.0,
                max.unit
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    fn sample() -> TelemetrySnapshot {
        let mut c = PerfCounters::default();
        for (u, busy, stall, idle) in [(0usize, 800u64, 150u64, 50u64), (1, 600, 100, 300)] {
            c.add(&PerfCounters::key("unit", Some(u), "busy_cycles"), busy);
            c.add(&PerfCounters::key("unit", Some(u), "stall_cycles"), stall);
            c.add(&PerfCounters::key("unit", Some(u), "idle_cycles"), idle);
            c.add(&PerfCounters::key("unit", Some(u), "total_cycles"), 1000);
        }
        c.add("arbiter5/conflict_cycles", 40);
        c.gauge_max("dma/prefetch_depth_hwm", 3);
        c.observe("unit/target_cycles", 800);
        c.observe("unit/target_cycles", 600);
        TelemetrySnapshot::new(c, Trace::default())
    }

    #[test]
    fn csv_has_all_kinds_in_order() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("kind,key,value\n"));
        assert!(csv.contains("counter,unit/00/busy_cycles,800"));
        assert!(csv.contains("gauge,dma/prefetch_depth_hwm,3"));
        assert!(csv.contains("histogram,unit/target_cycles/count,2"));
        assert!(csv.contains("histogram,unit/target_cycles/sum,1400"));
        let counter_pos = csv.find("counter,").unwrap();
        let gauge_pos = csv.find("gauge,").unwrap();
        let hist_pos = csv.find("histogram,").unwrap();
        assert!(counter_pos < gauge_pos && gauge_pos < hist_pos);
    }

    #[test]
    fn json_is_valid() {
        let json = sample().to_json();
        validate_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"unit/01/idle_cycles\":300"));
        assert!(json.contains("\"buckets\":["));
    }

    #[test]
    fn empty_snapshot_serializes_validly() {
        let snap = TelemetrySnapshot::default();
        validate_json(&snap.to_json()).expect("empty snapshot JSON");
        assert_eq!(snap.to_csv(), "kind,key,value\n");
        assert!(snap.bottleneck_report().units.is_empty());
    }

    #[test]
    fn bottleneck_report_ranks_stalls_and_parses_units() {
        let report = sample().bottleneck_report();
        assert_eq!(report.total_unit_cycles, 2000);
        assert_eq!(report.units.len(), 2);
        assert_eq!(report.units[1].idle_cycles, 300);
        assert!((report.units[0].busy_fraction() - 0.8).abs() < 1e-12);
        // idle (350) > stall (250) > arbiter conflicts (40)
        let names: Vec<&str> = report.stalls.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "scheduler idle",
                "unit stall (dma wait + cfg + flush)",
                "5:1 arbiter conflicts"
            ]
        );
        assert!((report.stalls[0].fraction - 350.0 / 2000.0).abs() < 1e-12);
        assert!((report.mean_busy_fraction() - 0.7).abs() < 1e-12);
        let text = report.render();
        assert!(text.contains("scheduler idle"));
        assert!(text.contains("unit utilization: mean  70.0%"));
    }
}
