//! `figures` — regenerates the paper's tables and figures by name.
//!
//! ```text
//! figures <name>...    run each named figure, in the order given
//! figures --list       print every registered figure, in paper order
//! ```
//!
//! This is the one place the figure knobs are read:
//!
//! - `IR_SCALE` — fraction of the paper's full NA12878 workload, in
//!   `(0, 1]` (default `1e-4`; the committed `results/` use `5e-3`);
//! - `IR_THREADS` — sweep worker threads, ≥ 1 (default: the host's
//!   available parallelism); no emitted byte depends on it;
//! - `IR_RESULTS_DIR` — where the artifacts go (default `results`).
//!
//! A bad knob value or an unknown figure name prints an `error: …` line
//! and exits with status 2; a failed write exits with status 1.

use std::path::PathBuf;
use std::process::ExitCode;

use ir_bench::figures::{figure, Figure};
use ir_bench::{parse_scale, parse_threads, FigureContext, FIGURES};

const USAGE: &str = "usage: figures <name>... | figures --list";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in FIGURES {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err((status, message)) => {
            eprintln!("{message}");
            ExitCode::from(status)
        }
    }
}

fn run(args: &[String]) -> Result<(), (u8, String)> {
    if args.is_empty() {
        return Err((2, format!("{USAGE}\n(`figures --list` names them all)")));
    }
    let figures: Vec<(&str, Figure)> = args
        .iter()
        .map(|name| match figure(name) {
            Some(f) => Ok((name.as_str(), f)),
            None => Err((2, unknown_figure(name))),
        })
        .collect::<Result<_, _>>()?;
    let ctx = context_from_env().map_err(|message| (2, message))?;
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| (1, format!("error: creating {}: {e}", ctx.out_dir.display())))?;
    for (name, f) in figures {
        f(&ctx).map_err(|e| (1, format!("error: {name}: {e}")))?;
    }
    Ok(())
}

fn unknown_figure(name: &str) -> String {
    let names: Vec<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
    format!(
        "error: no figure named {name}; the registry holds: {}",
        names.join(", ")
    )
}

/// Reads `IR_SCALE`, `IR_THREADS` and `IR_RESULTS_DIR`.
fn context_from_env() -> Result<FigureContext, String> {
    let scale = parse_scale(env_raw("IR_SCALE").as_deref())?;
    let threads = parse_threads(env_raw("IR_THREADS").as_deref())?.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let out_dir =
        std::env::var_os("IR_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from);
    Ok(FigureContext {
        scale,
        threads,
        out_dir,
    })
}

/// A knob's raw value, or `None` when unset. A non-UTF-8 value comes back
/// lossily converted, so the parsers reject it instead of treating it as
/// unset.
fn env_raw(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}
