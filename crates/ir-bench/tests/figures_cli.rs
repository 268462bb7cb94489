//! The `figures` binary's command line: the registry listing, and the
//! diagnostics for a bad knob or an unknown figure name.

use std::process::{Command, Output};

fn figures(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.args(args)
        .env_remove("IR_SCALE")
        .env_remove("IR_THREADS")
        .env_remove("IR_RESULTS_DIR");
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("running figures")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn list_prints_the_registry_in_order() {
    let out = figures(&["--list"], &[]);
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    let registered: Vec<&str> = ir_bench::FIGURES.iter().map(|&(name, _)| name).collect();
    assert_eq!(listed, registered);
}

#[test]
fn bad_knob_exits_2_with_the_knob_named() {
    for (knob, raw) in [
        ("IR_SCALE", "abc"),
        ("IR_SCALE", "NaN"),
        ("IR_SCALE", "0"),
        ("IR_SCALE", "5e3"),
        ("IR_THREADS", "0"),
    ] {
        let out = figures(&["table1_isa"], &[(knob, raw)]);
        assert_eq!(out.status.code(), Some(2), "{knob}={raw}");
        let err = stderr(&out);
        assert!(err.starts_with(&format!("error: {knob}={raw} ")), "{err}");
        assert!(out.stdout.is_empty(), "{knob}={raw} must run nothing");
    }
}

#[test]
fn unknown_figure_exits_2_and_names_the_registry() {
    let out = figures(&["no_such_figure"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("no figure named no_such_figure"), "{err}");
    for (name, _) in ir_bench::FIGURES {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

/// With `IR_THREADS` unset the sweep runs on the host's parallelism (a
/// zero default would panic in `parallel_sweep`), and `IR_RESULTS_DIR`
/// is created when missing.
#[test]
fn a_figure_writes_into_the_results_dir() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_cli_out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = figures(
        &["fig7_scheduling"],
        &[("IR_RESULTS_DIR", dir.to_str().expect("utf-8 path"))],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    for file in ["fig7_scheduling.csv", "fig7_scheduling.txt"] {
        assert!(dir.join(file).is_file(), "{file} not written");
    }
}
