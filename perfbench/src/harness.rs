//! The measurement loop every workload shares: repeated set-ups, timed
//! passes until the run's time is spent, digest checks across passes, the
//! reference kernel that host times are normalized by, and the per-layer
//! aggregation of traced spans.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::span::{self_times, Scope, Span, Tracer};
use crate::stats::median;

/// Run ids of timed passes start here; set-ups count from 0.
pub const PASS_RUN_BASE: u32 = 1000;
/// Run id of the analysis phases of a traced run (probe, replay); repeated
/// rounds count down from it.
pub const ANALYSIS_RUN: u32 = u32::MAX;

/// Span names that are the benchmark's own bookkeeping, not a layer.
pub const HARNESS: [&str; 5] = ["setup", "pass", "chrom", "probe", "replay"];

/// What one timed pass produced.
pub struct PassOut<P> {
    /// Target runs completed (one target under one configuration, or one
    /// served request).
    pub runs: u64,
    /// Runs whose in-pass correctness check failed.
    pub failed: u64,
    /// Digest of every modeled output of the pass.
    pub digest: u64,
    /// Outputs kept for the checks and metrics after the timed phase.
    pub payload: P,
}

/// Seconds the reference kernel takes on the reference host when nothing
/// else loads it (see [`reference_s`]).
pub const REF_NOMINAL_S: f64 = 0.06;

/// Wall seconds of a fixed allocation-and-hashing kernel run on `threads`
/// threads at once.
///
/// The reference host's speed drifts by up to 2x over minutes as other
/// tenants load its caches and memory, and this kernel slows with it much
/// as the simulator does; a simple arithmetic loop does not. Each set-up
/// and pass is followed by one reference run, and host times are reported
/// scaled by `REF_NOMINAL_S / reference`, i.e. at the host's quiet speed.
/// The kernel is the benchmark's own code, so a change to the simulator
/// cannot move it. It runs in a child process (this binary with
/// `--reference-kernel <threads>`), so its memory never shows in the
/// measured process's peak RSS; `None` if the child fails.
pub fn reference_s(threads: usize) -> Option<f64> {
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["--reference-kernel", &threads.to_string()])
            .output()
    });
    child
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok()?.trim().parse().ok())
        .filter(|&s: &f64| s > 0.0)
}

/// The reference kernel itself: wall seconds of `threads` concurrent
/// copies of a fixed allocation-and-hashing loop.
pub fn reference_kernel(threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut map = std::collections::HashMap::new();
                for k in 0..150_000u64 {
                    map.insert(k.wrapping_mul(31), vec![k as u8; (k % 200) as usize]);
                }
                std::hint::black_box(&map);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Host wall time of one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassStat {
    /// Wall seconds.
    pub wall_s: f64,
    /// Reference-kernel seconds measured right after the pass (`None` if
    /// that reference run failed).
    pub ref_s: Option<f64>,
    /// Target runs completed.
    pub runs: u64,
    /// Whether spans were recorded.
    pub traced: bool,
}

/// Operations attempted and failed, with a note per failed check.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Of those, operations that failed a check, returned `Err` or panicked.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records a check over `ops` operations that failed `failed` of them.
    pub fn check(&mut self, ops: u64, failed: u64, what: &str) {
        self.attempted += ops;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("FAILED {what}: {failed} of {ops}"));
        }
    }
}

/// Everything the loop measured.
pub struct Measured<S, P> {
    /// The set-up the passes ran on (the last of the repeats).
    pub setup: S,
    /// Wall seconds of each set-up, with the reference-kernel seconds
    /// measured right after it.
    pub setup_s: Vec<(f64, Option<f64>)>,
    /// Each timed pass.
    pub passes: Vec<PassStat>,
    /// Operations attempted and failed so far.
    pub tally: Tally,
    /// Digest of the first completed pass.
    pub digest: Option<u64>,
    /// Payload of that pass.
    pub payload: Option<P>,
}

impl<S, P> Measured<S, P> {
    /// Median target runs per host second over the untraced passes, raw
    /// or at the reference speed. A pass whose reference run failed (a
    /// failed operation already) has no rate at the reference speed.
    pub fn runs_per_s(&self, at_reference: bool) -> f64 {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .filter(|p| !p.traced && p.runs > 0)
            .filter_map(|p| Some(p.runs as f64 / p.wall_s * scale(at_reference, p.ref_s)?))
            .collect();
        median(&rates)
    }

    /// Median set-up seconds, raw or at the reference speed.
    pub fn setup_s(&self, at_reference: bool) -> f64 {
        let s: Vec<f64> = self
            .setup_s
            .iter()
            .filter_map(|&(wall, reference)| Some(wall / scale(at_reference, reference)?))
            .collect();
        median(&s)
    }

    /// Median reference-kernel seconds over set-ups and passes.
    pub fn reference_s(&self) -> f64 {
        let r: Vec<f64> = self
            .setup_s
            .iter()
            .filter_map(|s| s.1)
            .chain(self.passes.iter().filter_map(|p| p.ref_s))
            .collect();
        median(&r)
    }

    /// Median pass wall time, traced or not.
    pub fn median_wall_s(&self, traced: bool) -> f64 {
        let walls: Vec<f64> = self
            .passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall_s)
            .collect();
        median(&walls)
    }
}

/// How a workload is measured.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Record spans; passes then alternate untraced and traced.
    pub traced: bool,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Threads of the timed phase; the reference kernel after a pass runs
    /// on as many (set-ups are single-threaded).
    pub threads: usize,
}

/// Runs `setup` `plan.setup_repeats` times, then timed passes over the
/// last set-up until `plan.seconds` have elapsed; every pass must
/// reproduce the first pass's digest. Before each pass, `between`
/// (untimed) sees the first pass's payload, if any. With `plan.traced`,
/// set-ups record spans and passes alternate untraced and traced (at
/// least one of each), so the overhead of tracing is the difference of
/// their medians. A failed reference run counts as a failed operation.
pub fn measure<S, P>(
    tracer: &Tracer,
    plan: Plan,
    mut setup: impl FnMut(Scope<'_>) -> S,
    mut between: impl FnMut(&mut S, Option<&P>),
    expected_runs: impl Fn(&S) -> u64,
    mut pass: impl FnMut(&mut S, Scope<'_>) -> Result<PassOut<P>, String>,
) -> Measured<S, P> {
    let untraced = Tracer::new(false);
    let mut tally = Tally::default();
    let reference = |tally: &mut Tally, threads: usize| {
        let r = reference_s(threads);
        tally.check(1, u64::from(r.is_none()), "reference kernel run");
        r
    };
    let mut setup_s = Vec::with_capacity(plan.setup_repeats);
    let mut last = None;
    for i in 0..plan.setup_repeats.max(1) {
        drop(last.take());
        let scope = if plan.traced {
            tracer.root(i as u32)
        } else {
            untraced.root(0)
        };
        let t0 = Instant::now();
        last = Some(scope.span("setup", 0, &mut setup));
        let wall_s = t0.elapsed().as_secs_f64();
        setup_s.push((wall_s, reference(&mut tally, 1)));
    }
    let mut passes = Vec::new();
    let mut first: Option<(u64, P)> = None;
    let mut s = last.expect("at least one set-up ran");

    let budget = Duration::from_secs(plan.seconds);
    let start = Instant::now();
    let mut i = 0u32;
    loop {
        between(&mut s, first.as_ref().map(|f| &f.1));
        let traced_pass = plan.traced && i % 2 == 1;
        let scope = if traced_pass {
            tracer.root(PASS_RUN_BASE + i)
        } else {
            untraced.root(PASS_RUN_BASE + i)
        };
        let expected = expected_runs(&s);
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            scope.span("pass", u64::from(i), |scope| pass(&mut s, scope))
        }));
        let wall_s = t0.elapsed().as_secs_f64();
        let ref_s = reference(&mut tally, plan.threads);
        match out {
            Ok(Ok(out)) => {
                passes.push(PassStat {
                    wall_s,
                    ref_s,
                    runs: out.runs,
                    traced: traced_pass,
                });
                tally.check(expected, out.failed, &format!("pass {i} in-pass checks"));
                match &first {
                    None => first = Some((out.digest, out.payload)),
                    Some((d, _)) if *d != out.digest => {
                        tally.failed += out.runs - out.failed.min(out.runs);
                        tally.notes.push(format!(
                            "FAILED pass {i}: digest {:016x} differs from the first pass's \
                             ({d:016x})",
                            out.digest
                        ));
                    }
                    Some(_) => {}
                }
            }
            Ok(Err(e)) => tally.check(expected, expected, &format!("pass {i} returned Err({e})")),
            Err(_) => tally.check(expected, expected, &format!("pass {i} panicked")),
        }
        i += 1;
        let enough = if plan.traced { i >= 2 } else { i >= 1 };
        if enough && start.elapsed() >= budget {
            break;
        }
    }
    let (digest, payload) = first.unzip();
    Measured {
        setup: s,
        setup_s,
        passes,
        tally,
        digest,
        payload,
    }
}

/// Per-layer view of a traced run's spans.
pub struct Layers {
    spans: Vec<Span>,
    selfs: BTreeMap<u32, u64>,
    /// Name of each span's root span.
    roots: BTreeMap<u32, &'static str>,
}

impl Layers {
    /// Indexes `spans` by id, self time and root span.
    pub fn new(spans: Vec<Span>) -> Self {
        let selfs = self_times(&spans);
        let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let roots = spans
            .iter()
            .map(|s| {
                let mut root = s;
                while let Some(p) = root.parent.and_then(|p| by_id.get(&p)) {
                    root = p;
                }
                (s.id, root.name)
            })
            .collect();
        Layers {
            spans,
            selfs,
            roots,
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn root_name(&self, s: &Span) -> &'static str {
        self.roots[&s.id]
    }

    /// Self seconds of `layer`: the median over set-ups or traced passes
    /// (whichever contain it) of each run's summed self time; for the
    /// one-off analysis phases, their total.
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.busy_where(layer, |_| true)
    }

    /// [`Self::busy_s`] over the spans of `layer` whose arg passes `keep`.
    pub fn busy_where(&self, layer: &str, keep: impl Fn(u64) -> bool) -> f64 {
        let mut per_run: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == layer && keep(s.arg)) {
            *per_run.entry(s.run).or_default() += self.selfs[&s.id];
        }
        let secs: Vec<f64> = per_run.values().map(|&ns| ns as f64 / 1e9).collect();
        median(&secs)
    }

    /// Durations, in microseconds, of every span of `layer`.
    pub fn durations_us(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == layer)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Share of the traced passes' thread time that layer spans account
    /// for: layer self time over the self time of every span under a
    /// `pass` root.
    pub fn coverage(&self) -> f64 {
        let (mut layer, mut all) = (0u64, 0u64);
        for s in &self.spans {
            if self.root_name(s) != "pass" {
                continue;
            }
            let st = self.selfs[&s.id];
            all += st;
            if !HARNESS.contains(&s.name) {
                layer += st;
            }
        }
        if all == 0 {
            0.0
        } else {
            layer as f64 / all as f64
        }
    }

    /// Slowest chromosome's host time over the mean, median over traced
    /// passes (0 when no pass records chromosome spans).
    pub fn straggler_ratio(&self) -> f64 {
        let mut per_run: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == "chrom") {
            if self.root_name(s) == "pass" {
                per_run.entry(s.run).or_default().push(s.dur_ns() as f64);
            }
        }
        let ratios: Vec<f64> = per_run
            .values()
            .map(|d| d.iter().copied().fold(0.0, f64::max) * d.len() as f64 / d.iter().sum::<f64>())
            .collect();
        median(&ratios)
    }
}

/// Factor that turns a host rate measured next to a reference run of
/// `ref_s` into the rate at the reference speed (1 for raw; `None` when
/// the reference run failed).
fn scale(at_reference: bool, ref_s: Option<f64>) -> Option<f64> {
    if at_reference {
        ref_s.map(|r| r / REF_NOMINAL_S)
    } else {
        Some(1.0)
    }
}
