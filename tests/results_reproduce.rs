//! The committed `results/` are the reproduction's evidence: every
//! modeled table, report and trace at scale 5e-3. This test regenerates
//! every figure of the `ir_bench` registry in-process, at that scale on
//! two threads, into a scratch directory, and requires the two trees to
//! hold the same CSV/TXT/JSON files with the same bytes. A committed
//! artifact no registered figure writes fails it too, so the registry is
//! the only list of figures. The `.log` files are console captures, not
//! checked here.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use ir_bench::{parallel_sweep, FigureContext, FIGURES};

/// The scale the committed `results/` were generated at.
const COMMITTED_SCALE: f64 = 5e-3;

/// The artifact files (CSV, TXT, JSON) directly under `dir`.
fn artifacts(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("listing {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| {
            Path::new(name)
                .extension()
                .is_some_and(|ext| ext == "csv" || ext == "txt" || ext == "json")
        })
        .collect()
}

#[test]
fn every_registered_figure_reproduces_the_committed_results() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("results_reproduce");
    let _ = fs::remove_dir_all(&out_dir);
    fs::create_dir_all(&out_dir).expect("creating the scratch results directory");
    let ctx = FigureContext {
        scale: COMMITTED_SCALE,
        threads: 2,
        out_dir: out_dir.clone(),
    };
    // Figures write disjoint files, so two run at a time; no emitted byte
    // depends on the scheduling.
    parallel_sweep(FIGURES, 2, |(name, figure)| {
        figure(&ctx).unwrap_or_else(|e| panic!("figure {name} failed: {e}"));
    });

    let written = artifacts(&out_dir);
    let expected = artifacts(&committed);
    let mut problems = Vec::new();
    for name in expected.difference(&written) {
        problems.push(format!("results/{name} is written by no registered figure"));
    }
    for name in written.difference(&expected) {
        problems.push(format!(
            "{name} is written but not committed under results/"
        ));
    }
    for name in written.intersection(&expected) {
        let fresh = fs::read(out_dir.join(name)).expect("reading a regenerated artifact");
        let kept = fs::read(committed.join(name)).expect("reading a committed artifact");
        if fresh != kept {
            problems.push(format!(
                "results/{name} differs from its regeneration at {}",
                out_dir.join(name).display()
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "{} of {} artifacts do not reproduce:\n  {}",
        problems.len(),
        expected.union(&written).count(),
        problems.join("\n  ")
    );
}
