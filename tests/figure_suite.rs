//! `scripts/run_all_figures.sh` regenerates the committed `results/`, and
//! CI checks those files byte for byte after running it. A figure binary
//! the script never runs would leave its outputs unchecked, so every
//! `crates/ir-bench/src/bin/*.rs` must appear as a `run <name>` line.

use std::path::Path;

#[test]
fn every_bench_binary_is_run_by_the_figure_script() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let script = std::fs::read_to_string(root.join("scripts/run_all_figures.sh"))
        .expect("reading scripts/run_all_figures.sh");
    let runs: Vec<&str> = script
        .lines()
        .filter_map(|line| line.trim().strip_prefix("run "))
        .map(str::trim)
        .collect();
    let bin_dir = root.join("crates/ir-bench/src/bin");
    let mut binaries: Vec<String> = std::fs::read_dir(&bin_dir)
        .expect("listing crates/ir-bench/src/bin")
        .filter_map(|entry| {
            let name = entry.expect("readable dir entry").file_name();
            Some(name.to_str()?.strip_suffix(".rs")?.to_string())
        })
        .collect();
    binaries.sort();
    assert!(binaries.len() >= 20, "only found {binaries:?}");
    for name in &binaries {
        assert!(
            runs.contains(&name.as_str()),
            "figure binary {name} is missing from scripts/run_all_figures.sh"
        );
    }
}
