//! Workload atlas: per-shape-family accelerator characterization.
//!
//! For each [`ShapeFamily`] the atlas derives the unit configuration a
//! fabric built for that family would use (`derive_shape_config`), runs a
//! family-profile workload through an [`AcceleratedSystem`] resized to
//! that geometry, and reports how the shape stresses the design: BRAM
//! buffer high-water occupancy, pruning effectiveness, arbiter
//! contention, and the derived unit count the VU9P floorplan admits.
//!
//! Outputs `workload_atlas.{csv,txt}` (the table) and
//! `workload_atlas.json` (the machine-readable per-family rows). Every
//! artifact is a pure function of the scale: the per-family generator
//! seeds are fixed, the simulation runs in virtual time, and the thread
//! count only pre-warms the functional oracle — repeat runs are
//! byte-identical (the CI `workload-atlas-smoke` job diffs two same-seed
//! runs byte for byte).

use crate::{FigureContext, Table};
use ir_fpga::{derive_shape_config, AcceleratedSystem, FpgaParams, FunctionalOracle, Scheduling};
use ir_workloads::ShapeFamily;

/// Per-family target budget: full-workload target count at scale 1.0 and
/// the cap that keeps the atlas tractable (long-read and deep-panel
/// targets each cost ~1e9 worst-case comparisons).
fn family_budget(family: ShapeFamily) -> (f64, usize) {
    match family {
        ShapeFamily::ShortReadGermline => (48_000.0, 64),
        ShapeFamily::LongRead => (2_000.0, 6),
        ShapeFamily::DeepPanel => (4_000.0, 8),
        ShapeFamily::Metagenomic => (24_000.0, 32),
    }
}

fn family_targets(family: ShapeFamily, scale: f64) -> usize {
    let (full, cap) = family_budget(family);
    ((full * scale).ceil() as usize).clamp(2, cap)
}

pub fn run(ctx: &FigureContext) -> std::io::Result<()> {
    let scale = ctx.scale;
    println!(
        "Workload atlas ({} shape families, scale {scale})\n",
        ShapeFamily::ALL.len()
    );

    let mut table = Table::new(vec![
        "family",
        "targets",
        "units",
        "max units",
        "bram36/unit",
        "bram util %",
        "geometry",
        "cons hwm %",
        "read hwm %",
        "Mcmp",
        "prune %",
        "arb5 conflict/grant",
        "wall ms",
    ]);
    let mut json_rows = Vec::new();

    for &family in ShapeFamily::ALL.iter() {
        // One oracle per family: the oracle memoizes by (timing key,
        // target index) within a single workload, and every family shares
        // the IRACC timing key — a shared oracle would replay short-read
        // results for every other family's targets.
        let mut oracle = FunctionalOracle::new();
        let profile = family.profile();
        let shape = derive_shape_config(&profile.limits(), &FpgaParams::iracc())
            .expect("every built-in family derives a valid unit configuration");
        let count = family_targets(family, scale);
        let seed = 0xA71A5 ^ family.index() as u64;
        let targets = profile.generator(scale).targets(count, seed);

        let system = AcceleratedSystem::new(shape.params, Scheduling::Asynchronous)
            .expect("derived params fit the VU9P")
            .with_geometry(shape.geometry)
            .with_telemetry(true);
        oracle.precompute(&targets, &shape.params, ctx.threads);
        let run = system.run_with_oracle(&targets, &mut oracle);
        let snap = run.telemetry.as_ref().expect("telemetry enabled");

        // Pruning rate the paper reports (§III-A): fraction of the naive
        // all-offsets comparison count the prune comparator eliminated.
        let naive: u64 = targets
            .iter()
            .map(|t| t.worst_case_comparisons())
            .sum();
        let comparisons = snap.counter("hdc/comparisons");
        let pruned_offsets = snap.counter("hdc/pruned_offsets");
        let prune_rate = if naive == 0 {
            0.0
        } else {
            1.0 - comparisons as f64 / naive as f64
        };

        let cons_hwm = snap.gauge("bram/consensus_bytes_hwm");
        let read_hwm = snap.gauge("bram/read_bytes_hwm");
        let cons_occ = cons_hwm as f64 / shape.geometry.consensus_capacity_bytes() as f64;
        let read_occ = read_hwm as f64 / shape.geometry.read_capacity_bytes() as f64;

        let arb5_grants = snap.counter("arbiter5/grants");
        let arb5_conflicts = snap.counter("arbiter5/conflict_cycles");
        let arb5_per_grant = if arb5_grants == 0 {
            0.0
        } else {
            arb5_conflicts as f64 / arb5_grants as f64
        };
        let arb32_grants = snap.counter("arbiter32/grants");
        let arb32_conflicts = snap.counter("arbiter32/conflict_grants");

        println!(
            "=== {family} ===\n{} targets, {} units ({} max at {} BRAM36/unit), \
             geometry {}x{}B consensuses / {}x{}B reads\n\
             {:.1} Mcmp, prune {:.1}%, cons hwm {:.1}%, read hwm {:.1}%, \
             virtual wall {:.3} ms\n",
            targets.len(),
            shape.params.num_units,
            shape.max_units,
            shape.unit_bram36_blocks,
            shape.geometry.max_consensuses,
            shape.geometry.consensus_slot_bytes,
            shape.geometry.max_reads,
            shape.geometry.read_slot_bytes,
            comparisons as f64 / 1e6,
            prune_rate * 100.0,
            cons_occ * 100.0,
            read_occ * 100.0,
            run.wall_time_s * 1e3,
        );

        table.row(vec![
            family.name().to_string(),
            targets.len().to_string(),
            shape.params.num_units.to_string(),
            shape.max_units.to_string(),
            shape.unit_bram36_blocks.to_string(),
            format!("{:.1}", shape.resources.bram_utilization * 100.0),
            format!(
                "{}x{}B/{}x{}B",
                shape.geometry.max_consensuses,
                shape.geometry.consensus_slot_bytes,
                shape.geometry.max_reads,
                shape.geometry.read_slot_bytes
            ),
            format!("{:.1}", cons_occ * 100.0),
            format!("{:.1}", read_occ * 100.0),
            format!("{:.2}", comparisons as f64 / 1e6),
            format!("{:.1}", prune_rate * 100.0),
            format!("{arb5_per_grant:.4}"),
            format!("{:.3}", run.wall_time_s * 1e3),
        ]);

        json_rows.push(format!(
            concat!(
                "    {{\n",
                "      \"family\": \"{}\",\n",
                "      \"targets\": {},\n",
                "      \"units\": {},\n",
                "      \"max_units\": {},\n",
                "      \"unit_bram36_blocks\": {},\n",
                "      \"bram_utilization\": {:.6},\n",
                "      \"geometry\": {{ \"max_consensuses\": {}, \"max_reads\": {}, ",
                "\"consensus_slot_bytes\": {}, \"read_slot_bytes\": {} }},\n",
                "      \"bram_consensus_hwm_bytes\": {},\n",
                "      \"bram_read_hwm_bytes\": {},\n",
                "      \"consensus_occupancy\": {:.6},\n",
                "      \"read_occupancy\": {:.6},\n",
                "      \"comparisons\": {},\n",
                "      \"pruned_offsets\": {},\n",
                "      \"prune_rate\": {:.6},\n",
                "      \"arbiter5_grants\": {},\n",
                "      \"arbiter5_conflict_cycles\": {},\n",
                "      \"arbiter32_grants\": {},\n",
                "      \"arbiter32_conflict_grants\": {},\n",
                "      \"virtual_wall_s\": {:.9}\n",
                "    }}"
            ),
            family.name(),
            targets.len(),
            shape.params.num_units,
            shape.max_units,
            shape.unit_bram36_blocks,
            shape.resources.bram_utilization,
            shape.geometry.max_consensuses,
            shape.geometry.max_reads,
            shape.geometry.consensus_slot_bytes,
            shape.geometry.read_slot_bytes,
            cons_hwm,
            read_hwm,
            cons_occ,
            read_occ,
            comparisons,
            pruned_offsets,
            prune_rate,
            arb5_grants,
            arb5_conflicts,
            arb32_grants,
            arb32_conflicts,
            run.wall_time_s,
        ));
    }

    table.emit(ctx, "workload_atlas")?;

    let json = format!(
        "{{\n  \"ir_scale\": {scale},\n  \"families\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let json_path = ctx.write("workload_atlas.json", json)?;
    println!("[json] {}", json_path.display());
    Ok(())
}
