//! The paper's evaluation as code: every modeled table and figure, and
//! the plumbing they share.
//!
//! - [`figures`] — the figure registry ([`FIGURES`]): one function per
//!   table or figure, each taking a [`FigureContext`] (scale, worker
//!   threads, output directory). The `figures` binary runs them by name
//!   (`figures fig9_speedup`, `figures --list`) and is the only reader of
//!   the `IR_SCALE`, `IR_THREADS` and `IR_RESULTS_DIR` knobs, which
//!   [`parse_scale`] / [`parse_threads`] validate;
//! - [`parallel_sweep`] — the worker pool the figures run their
//!   independent configuration points on;
//! - [`default_workload`] / [`bench_workload`] — the paper-geometry and
//!   bench-profile synthetic workload generators;
//! - [`chromosome_sweep`] / [`FullGenome`] — the Figure 9 per-chromosome
//!   sweep and its full-genome extrapolation;
//! - [`Table`] — aligned text tables, also written as CSV + TXT;
//! - [`gmean`] — the geometric mean the paper reports for Figure 9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use ir_workloads::{check_scale, WorkloadConfig, WorkloadGenerator};

pub mod figures;
pub mod sweep;

pub use figures::{Figure, FigureContext, FIGURES};
pub use sweep::{chromosome_sweep, ChromosomeRuns, FullGenome};

/// Parses a raw `IR_SCALE` value: unset means the default `1e-4`; a set
/// value must be a number in `(0, 1]`.
///
/// # Errors
///
/// Returns the `error: IR_SCALE=…` diagnostic for a non-numeric or
/// out-of-range value.
///
/// # Example
///
/// ```
/// use ir_bench::parse_scale;
///
/// assert_eq!(parse_scale(None), Ok(1e-4));
/// assert_eq!(parse_scale(Some("5e-3")), Ok(5e-3));
/// assert!(parse_scale(Some("5e3")).is_err());
/// ```
pub fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(1e-4);
    };
    let scale = raw
        .parse::<f64>()
        .map_err(|_| format!("error: IR_SCALE={raw} is not a number"))?;
    check_scale(scale).map_err(|e| format!("error: IR_SCALE={raw} is {e}"))
}

/// Parses a raw `IR_THREADS` value: unset means `None` (the caller picks
/// the default); a set value must be an integer ≥ 1.
///
/// # Errors
///
/// Returns the `error: IR_THREADS=…` diagnostic for a non-integer value
/// or zero.
///
/// # Example
///
/// ```
/// use ir_bench::parse_threads;
///
/// assert_eq!(parse_threads(None), Ok(None));
/// assert_eq!(parse_threads(Some("2")), Ok(Some(2)));
/// assert!(parse_threads(Some("0")).is_err());
/// ```
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.parse::<usize>() {
        Ok(0) => Err(format!("error: IR_THREADS={raw} must be at least 1")),
        Ok(t) => Ok(Some(t)),
        Err(_) => Err(format!("error: IR_THREADS={raw} is not a positive integer")),
    }
}

/// Runs `f` over every input on `threads` scoped worker threads (dynamic
/// work-stealing distribution) and returns the outputs **in input
/// order** — so callers can compute derived rows (e.g. speedup vs the
/// first sweep point) exactly as the old serial loops did.
///
/// Results travel back over an index-stamped channel into disjoint
/// slots; with `threads == 1` or a single input the closure runs inline
/// on the calling thread, keeping small sweeps allocation-cheap.
///
/// # Panics
///
/// Panics if `threads` is zero or a worker thread panics.
///
/// # Example
///
/// ```
/// use ir_bench::parallel_sweep;
///
/// let squares = parallel_sweep(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_sweep<I, O, F>(inputs: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(threads > 0, "at least one thread required");
    if threads == 1 || inputs.len() <= 1 {
        return inputs.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, O)>();
    let mut slots: Vec<Option<O>> = (0..inputs.len()).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        let (next, f) = (&next, &f);
        for _ in 0..threads.min(inputs.len()) {
            let tx = tx.clone();
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(input) = inputs.get(i) else {
                    break;
                };
                tx.send((i, f(input))).expect("collector outlives workers");
            });
        }
        drop(tx);
        for (i, out) in rx {
            debug_assert!(slots[i].is_none(), "each sweep point runs once");
            slots[i] = Some(out);
        }
    })
    .expect("sweep worker threads join");
    slots
        .into_iter()
        .map(|s| s.expect("every sweep point completed"))
        .collect()
}

/// The standard workload generator the figure binaries share: paper-shaped
/// targets (250 bp reads, 320–2048 bp consensuses, Zipf coverage) at the
/// given scale.
pub fn default_workload(scale: f64) -> WorkloadGenerator {
    WorkloadGenerator::new(WorkloadConfig {
        scale,
        ..WorkloadConfig::default()
    })
}

/// The *bench-profile* workload: geometry scaled down ~4× (62 bp reads,
/// 80–510 bp consensuses) so per-target simulation is ~20× cheaper and the
/// figure binaries can afford enough targets per chromosome (hundreds to
/// thousands) for the scheduling effects of Figures 7 and 9 to be
/// statistically meaningful.
///
/// The scaling preserves the ratios that drive accelerator behaviour:
/// `m/n` spans the same 1.3–8.2 band as the paper's geometry, and a 62 bp
/// read wastes 3.1% of the 32-lane calculator's last block — matching the
/// 2.3% waste of a 250 bp read. `scale` remains the fraction of the
/// paper's per-chromosome target counts.
pub fn bench_workload(scale: f64) -> WorkloadGenerator {
    WorkloadGenerator::new(WorkloadConfig {
        scale,
        read_len: 62,
        min_consensus_len: 80,
        max_consensus_len: 510,
        ..WorkloadConfig::default()
    })
}

/// Geometric mean of strictly positive values (the Figure 9 aggregate).
///
/// # Panics
///
/// Panics if `values` is empty or any value is non-positive.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of an empty slice");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "gmean requires positive values"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A simple aligned text table that can also serialize itself to CSV.
///
/// # Example
///
/// ```
/// use ir_bench::Table;
///
/// let mut t = Table::new(vec!["chromosome", "speedup"]);
/// t.row(vec!["chr21".to_string(), "81.3".to_string()]);
/// let text = t.render();
/// assert!(text.contains("chr21"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&'static str>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                let _ = write!(out, "+{:-<1$}", "", w + 2);
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (w, h) in widths.iter().zip(&self.headers) {
            let _ = write!(out, "| {h:w$} ");
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &self.rows {
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(out, "| {cell:>w$} ");
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }

    /// Prints the table and writes the matching `<name>.csv` +
    /// `<name>.txt` pair into the context's output directory.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn emit(&self, ctx: &FigureContext, name: &str) -> io::Result<()> {
        let text = self.render();
        println!("{text}");
        let mut csv = self.headers.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let path = ctx.write(&format!("{name}.csv"), csv)?;
        println!("[csv] {}", path.display());
        let path = ctx.write(&format!("{name}.txt"), text)?;
        println!("[txt] {}", path.display());
        Ok(())
    }
}

/// Formats seconds human-readably (µs/ms/s/min/h).
pub fn fmt_duration(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.1} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else if seconds < 120.0 {
        format!("{seconds:.2} s")
    } else if seconds < 7200.0 {
        format!("{:.1} min", seconds / 60.0)
    } else {
        format!("{:.1} h", seconds / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_constants() {
        assert!((gmean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        let _ = gmean(&[1.0, 0.0]);
    }

    #[test]
    fn table_renders_and_aligns() {
        let mut t = Table::new(vec!["a", "long header"]);
        t.row(vec!["1".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("long header"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(5e-7), "0.5 µs");
        assert_eq!(fmt_duration(0.25), "250.00 ms");
        assert_eq!(fmt_duration(30.0), "30.00 s");
        assert_eq!(fmt_duration(1800.0), "30.0 min");
        assert_eq!(fmt_duration(42.0 * 3600.0), "42.0 h");
    }

    #[test]
    fn scale_parses_good_and_unset_values() {
        assert_eq!(parse_scale(None), Ok(1e-4));
        assert_eq!(parse_scale(Some("5e-3")), Ok(5e-3));
        assert_eq!(parse_scale(Some("1")), Ok(1.0));
    }

    #[test]
    fn scale_rejects_non_numeric_zero_and_out_of_range() {
        for raw in [
            "1e-2x", "", "garbage", "0", "0.0", "-1e-3", "5e3", "1.5", "inf", "NaN",
        ] {
            let err = parse_scale(Some(raw)).expect_err(raw);
            assert!(err.starts_with(&format!("error: IR_SCALE={raw} ")), "{err}");
        }
    }

    #[test]
    fn threads_parse_good_and_unset_values() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some("16")), Ok(Some(16)));
    }

    #[test]
    fn threads_reject_non_numeric_zero_and_out_of_range() {
        for raw in ["two", "", "2x", "0", "-1", "1.5", "99999999999999999999999"] {
            let err = parse_threads(Some(raw)).expect_err(raw);
            assert!(
                err.starts_with(&format!("error: IR_THREADS={raw} ")),
                "{err}"
            );
        }
    }

    #[test]
    fn parallel_sweep_keeps_input_order() {
        let inputs: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_sweep(&inputs, threads, |&x| x * 3);
            assert_eq!(out, inputs.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_sweep_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_sweep(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_sweep(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn parallel_sweep_zero_threads_panics() {
        let _ = parallel_sweep(&[1u8], 0, |&x| x);
    }
}
