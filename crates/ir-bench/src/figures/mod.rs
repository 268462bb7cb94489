//! The figure registry: every modeled table and figure of the paper's
//! evaluation, as one function each.
//!
//! A figure takes a [`FigureContext`] (workload scale, sweep worker
//! count, output directory), prints its report to stdout and writes its
//! artifacts (`<name>.csv` + `<name>.txt` per table, plus a few JSON
//! reports and traces) into the context's directory. No figure reads the
//! environment, and no emitted byte depends on the thread count.
//!
//! [`FIGURES`] lists them in paper order. It is the only list of figures:
//! the `figures` binary runs them by name, `scripts/run_all_figures.sh`
//! loops over `figures --list`, and the root `tests/results_reproduce.rs`
//! regenerates every one at scale 5e-3 and compares each artifact byte
//! for byte with the committed `results/`.

use std::fs;
use std::io;
use std::path::PathBuf;

/// What a figure runs at and where it writes.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureContext {
    /// Fraction of the paper's full NA12878 workload, in `(0, 1]`. Scale
    /// 1.0 is ~2.8 M IR targets across Ch1–22; `1e-4` keeps every shape
    /// distribution intact at ~280 targets. The committed `results/` are
    /// at `5e-3`.
    pub scale: f64,
    /// Worker threads for the figure's independent sweep points and
    /// oracle pre-warming (≥ 1). A wall-clock knob only: every artifact
    /// is byte-identical for any value.
    pub threads: usize,
    /// Directory every artifact is written into. It must exist.
    pub out_dir: PathBuf,
}

impl FigureContext {
    /// Writes `contents` to `<out_dir>/<file_name>` and returns the path.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, with the path in its message.
    pub fn write(&self, file_name: &str, contents: impl AsRef<[u8]>) -> io::Result<PathBuf> {
        let path = self.out_dir.join(file_name);
        fs::write(&path, contents)
            .map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", path.display())))?;
        Ok(path)
    }
}

/// One figure: runs the experiment and writes its artifacts.
pub type Figure = fn(&FigureContext) -> io::Result<()>;

/// Declares each figure's module (`<name>.rs`, whose `run` is the
/// figure) and lists them in [`FIGURES`] under the module's name.
macro_rules! registry {
    ($($name:ident),+ $(,)?) => {
        $(mod $name;)+

        /// Every modeled figure, by name, in paper order: §II background,
        /// §III microarchitecture, §IV system and scheduling, §V
        /// evaluation, then the extensions beyond the paper.
        pub const FIGURES: &[(&str, Figure)] = &[$((stringify!($name), $name::run)),+];
    };
}

registry! {
    fig2_pipeline_breakdown,
    fig3_ir_fraction,
    complexity_table,
    table1_isa,
    table_resources,
    pruning_ablation,
    ablation_interconnect,
    frequency_study,
    fig7_scheduling,
    probe_variance,
    ablation_scheduling,
    ablation_units,
    dma_overhead,
    fig8_data_parallel,
    table2_machines,
    fig9_speedup,
    fig9_cost,
    hls_comparison,
    gpu_comparison,
    headline_claims,
    accuracy_eval,
    multi_fpga,
    telemetry_report,
    resilience_study,
    workload_atlas,
    serve_load,
    serve_fleet,
}

/// The registered figure called `name`, if any.
pub fn figure(name: &str) -> Option<Figure> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}
