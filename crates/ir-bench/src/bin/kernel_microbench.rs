//! Per-kernel WHD throughput rows for the perf-trajectory snapshot.
//!
//! Times the weighted-Hamming-distance sweep on the scalar reference, the
//! portable SWAR kernel and the widest explicit-SIMD kernel the host CPU
//! offers (`simd` — the one [`ir_core::kernel::active`] dispatches to,
//! unless `IR_KERNEL` overrides it), in three modes:
//!
//! - **pair**  — per (consensus, read) pair, a one-row
//!   [`CandidateBlock`] and [`SweepRead`] built and swept with
//!   `run_read_sweep`: the per-pair setup cost the batch layout amortizes;
//! - **batch** — one `run_read_sweep` over a structure-of-arrays
//!   [`CandidateBlock`] holding all candidates, the deployed hot path;
//! - **serial-pruned** — one `run_read_sweep` under the serial
//!   `HdcConfig` (one base per cycle, immediate pruning), the shape that
//!   dominates the figure-9 oracle.
//!
//! `pair` and `batch` use the adversarial dense shape (unrelated read,
//! every lane accumulates) with pruning off, so every kernel does the
//! identical, closed-form amount of work and the Gbase/s column measures
//! raw fold throughput. `serial-pruned` sweeps a read cut from candidate 0
//! with a substitution every 50 bases (2%): offsets far from the true
//! placement stop at their prune point, so its Gbase/s counts the bases
//! the scans actually visit. Row keys are stable across hosts (`scalar`,
//! `swar`, `simd`); the `isa` column records which ISA `simd` resolved
//! to, and the snapshot records the same name as its `kernel` config
//! field so `bench-diff` never compares Gbase/s across ISAs.

use std::time::Instant;

use ir_bench::Table;
use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel;
use ir_core::KernelKind;
use ir_fpga::hdc::{run_read_sweep, HdcConfig};
use ir_genome::{Base, Qual, Sequence};

fn sequence(len: usize, salt: usize) -> Sequence {
    (0..len)
        .map(|i| Base::from_index((i * 7 + salt).wrapping_mul(2654435761) >> 8 & 3))
        .collect()
}

/// Times `f` adaptively: doubles the iteration count until the batch
/// takes ≥ 20 ms, then reports ns per call from the final batch.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 20 || iters >= 1 << 22 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 2;
    }
}

fn main() {
    let active = kernel::active();
    println!("WHD kernel microbenchmark (dense shape pruning off, serial shape pruned)");
    println!("active kernel: {active}");
    if let Some(diag) = kernel::active_diagnostic() {
        println!("dispatch diagnostic: {diag}");
    }
    println!();

    // Dense fixture: unrelated read, every lane accumulates. Pruning off
    // keeps the work closed-form and identical across kernels.
    let (m, n, candidates) = (698usize, 250usize, 8usize);
    let cfg = HdcConfig {
        pruning: false,
        ..HdcConfig::data_parallel()
    };
    let cons: Vec<Sequence> = (0..candidates).map(|i| sequence(m, i + 1)).collect();
    let read = sequence(n, 77);
    let quals = Qual::uniform(35, n).unwrap();
    let cons_rows: Vec<&[Base]> = cons.iter().map(Sequence::bases).collect();
    let block = CandidateBlock::from_bases_rows(&cons_rows);
    let sweep_read = SweepRead::new(read.bases(), &quals);
    // Bases compared per full sweep of one read against all candidates.
    let bases = (candidates * (m - n + 1) * n) as f64;

    // Serial fixture: a read cut from the middle of candidate 0 with a
    // substitution every 50 bases, so the sweep prunes like a real read.
    let serial_cfg = HdcConfig::serial();
    let start = (m - n) / 2;
    let cut: Sequence = cons[0].bases()[start..start + n]
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            if i % 50 == 25 {
                Base::from_index(b.index().map_or(0, |x| (x + 1) % 4))
            } else {
                b
            }
        })
        .collect();
    let serial_read = SweepRead::new(cut.bases(), &quals);
    // Bases the pruned scans visit — identical for every kernel.
    let visited: u64 = run_read_sweep(&block, &serial_read, KernelKind::Scalar, serial_cfg)
        .iter()
        .map(|run| run.comparisons)
        .sum();

    let rows: Vec<(&str, KernelKind)> = vec![
        ("scalar", KernelKind::Scalar),
        ("swar", KernelKind::Swar),
        ("simd", active),
    ];
    let mut table = Table::new(vec!["row", "isa", "mode", "ns_per_sweep", "gbase_per_s"]);
    let mut swar_batch_ns = None;
    let mut simd_batch_ns = None;
    for (row, kind) in rows {
        let pair_ns = time_ns(|| {
            for row in &cons_rows {
                let one = CandidateBlock::from_bases_rows(std::slice::from_ref(row));
                let pair_read = SweepRead::new(read.bases(), &quals);
                std::hint::black_box(run_read_sweep(&one, &pair_read, kind, cfg));
            }
        });
        let batch_ns = time_ns(|| {
            std::hint::black_box(run_read_sweep(&block, &sweep_read, kind, cfg));
        });
        if row == "swar" {
            swar_batch_ns = Some(batch_ns);
        }
        if row == "simd" {
            simd_batch_ns = Some(batch_ns);
        }
        let serial_ns = time_ns(|| {
            std::hint::black_box(run_read_sweep(&block, &serial_read, kind, serial_cfg));
        });
        for (mode, ns, work) in [
            ("pair", pair_ns, bases),
            ("batch", batch_ns, bases),
            ("serial-pruned", serial_ns, visited as f64),
        ] {
            table.row(vec![
                row.to_string(),
                kind.name().to_string(),
                mode.to_string(),
                format!("{ns:.0}"),
                format!("{:.3}", work / ns),
            ]);
        }
    }
    table.emit("kernel_microbench");

    if let (Some(swar), Some(simd)) = (swar_batch_ns, simd_batch_ns) {
        println!(
            "\nsimd ({active}) batch sweep is {:.2}x the SWAR kernel on the dense shape",
            swar / simd
        );
    }
}
