//! End-to-end smoke tests of the `ir-cli` binary: generate → realign →
//! simulate through real process invocations.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ir-cli"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ir_cli_test_{name}_{}.tio", std::process::id()))
}

#[test]
fn gen_realign_simulate_pipeline() {
    let path = temp_path("pipeline");

    let out = cli()
        .args([
            "gen",
            "--chromosome",
            "21",
            "--scale",
            "2e-5",
            "--seed",
            "9",
        ])
        .args(["--out", path.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));

    let out = cli()
        .args([
            "realign",
            path.to_str().unwrap(),
            "--rule",
            "gatk",
            "--threads",
            "2",
        ])
        .output()
        .expect("realign runs");
    assert!(
        out.status.success(),
        "realign failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("base comparisons"), "{text}");

    let out = cli()
        .args([
            "simulate",
            path.to_str().unwrap(),
            "--units",
            "8",
            "--lanes",
            "32",
        ])
        .args(["--sched", "async"])
        .output()
        .expect("simulate runs");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("bit-identical to software"), "{text}");

    std::fs::remove_file(&path).ok();
}

/// `serve --json/--trace` write parseable artifacts: a structured report
/// carrying SLO attainment and a Perfetto trace with named shard tracks.
#[test]
fn serve_exports_parseable_report_and_trace() {
    let dir = std::env::temp_dir().join(format!("ir_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp results dir");
    let targets = temp_path("serve_export");
    let out = cli()
        .args([
            "gen",
            "--chromosome",
            "21",
            "--scale",
            "2e-5",
            "--seed",
            "9",
        ])
        .args(["--out", targets.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(out.status.success());

    let json_path = dir.join("serve_report.json");
    let trace_path = dir.join("serve.trace.json");
    let out = cli()
        .args(["serve", targets.to_str().unwrap(), "--rate", "20000"])
        .args(["--slo-ms", "5", "--json", json_path.to_str().unwrap()])
        .args(["--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("serve runs");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("SLO attainment"), "{text}");
    let report = std::fs::read_to_string(&json_path).expect("report written");
    ir_system::telemetry::json::validate_json(&report).expect("report JSON parses");
    assert!(report.contains("\"slo_attainment\""));
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    ir_system::telemetry::json::validate_json(&trace).expect("trace JSON parses");
    assert!(trace.contains("\"shard 0\""));

    std::fs::remove_file(&targets).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = cli().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = cli()
        .args(["realign", "/nonexistent/definitely_missing.tio"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("opening"), "{err}");
}

#[test]
fn bad_flag_values_are_reported() {
    let out = cli()
        .args(["gen", "--chromosome", "21", "--scale", "banana"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --scale"));
}

/// A scale outside `(0, 1]` is a clean `error:` line and a nonzero exit
/// from both generators, not a panic in the workload generator (zero,
/// negative, NaN) or an abort on a petabyte allocation (`1e9`).
#[test]
fn out_of_range_scale_is_a_clean_error() {
    let path = temp_path("bad_scale");
    for scale in ["0", "-1", "nan", "1e9"] {
        for args in [
            &["gen", "--chromosome", "21"][..],
            &["workloads", "--family", "short-read"][..],
        ] {
            let out = cli()
                .args(args)
                .args(["--scale", scale, "--out", path.to_str().unwrap()])
                .output()
                .expect("generator runs");
            let err = String::from_utf8_lossy(&out.stderr).to_string();
            assert!(!out.status.success(), "{args:?} --scale {scale} must fail");
            assert!(err.starts_with("error: bad --scale"), "{scale}: {err}");
            assert!(!err.contains("panicked"), "{scale}: {err}");
        }
    }
    assert!(!path.exists(), "a rejected scale must write nothing");
}

/// A fabric with no units or no HDC lanes is a clean `error:` line and a
/// nonzero exit, not a panic inside the first sweep.
#[test]
fn degenerate_fabric_is_a_clean_error() {
    let path = temp_path("degenerate");
    let out = cli()
        .args([
            "gen",
            "--chromosome",
            "21",
            "--scale",
            "2e-5",
            "--seed",
            "9",
        ])
        .args(["--out", path.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(out.status.success());
    for flag in ["--units", "--lanes"] {
        let out = cli()
            .args(["simulate", path.to_str().unwrap(), flag, "0"])
            .output()
            .expect("simulate runs");
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(!out.status.success(), "{flag} 0 must fail");
        assert!(err.starts_with("error:"), "{flag} 0: {err}");
        assert!(!err.contains("panicked"), "{flag} 0: {err}");
    }
    std::fs::remove_file(&path).ok();
}

/// A negative or NaN `--spot-rate` is a clean `error:` line and exit 1
/// from `FleetConfig::validate`, like a negative `--hop-us`; it must not
/// run as if no spot profile had been asked for. Absent or 0 means none.
#[test]
fn bad_fleet_rates_are_clean_errors() {
    let path = temp_path("fleet_rates");
    let out = cli()
        .args([
            "gen",
            "--chromosome",
            "21",
            "--scale",
            "2e-5",
            "--seed",
            "9",
        ])
        .args(["--out", path.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(out.status.success());
    let serve = |flags: &[&str]| {
        cli()
            .args(["serve", path.to_str().unwrap(), "--fleet", "2"])
            .args(["--rate", "20000"])
            .args(flags)
            .output()
            .expect("serve runs")
    };
    for flags in [
        &["--spot-rate", "-1"][..],
        &["--spot-rate", "nan"][..],
        &["--hop-us", "-100"][..],
    ] {
        let out = serve(flags);
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(1), "{flags:?} must fail: {err}");
        assert!(err.starts_with("error:"), "{flags:?}: {err}");
        assert!(!err.contains("panicked"), "{flags:?}: {err}");
    }
    for flags in [&[][..], &["--spot-rate", "0"][..]] {
        let out = serve(flags);
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(out.status.success(), "{flags:?}: {text}");
        assert!(text.contains("spot rate 0/h"), "{flags:?}: {text}");
        assert!(!text.contains("spot:"), "{flags:?}: {text}");
    }
    std::fs::remove_file(&path).ok();
}
