//! Criterion microbenchmarks of the weighted-Hamming-distance kernel —
//! the operation the accelerator performs billions of times per target.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ir_bench::bench_workload;
use ir_core::batch::{CandidateBlock, SweepRead};
use ir_core::kernel::{self, DenseSweep, ReadWords};
use ir_core::{calc_whd, calc_whd_bounded, KernelKind};
use ir_fpga::hdc::{run_pair, run_read_sweep, HdcConfig};
use ir_fpga::unit::simulate_target_fast_with;
use ir_fpga::FpgaParams;
use ir_genome::{Base, Qual, Sequence};

fn sequence(len: usize, salt: usize) -> Sequence {
    (0..len)
        .map(|i| Base::from_index((i * 7 + salt).wrapping_mul(2654435761) >> 8 & 3))
        .collect()
}

fn bench_calc_whd(c: &mut Criterion) {
    let mut group = c.benchmark_group("calc_whd");
    for (m, n) in [(510usize, 62usize), (2048, 250)] {
        let cons = sequence(m, 1);
        let read = sequence(n, 2);
        let quals = Qual::uniform(35, n).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("full", format!("m{m}_n{n}")),
            &(),
            |b, ()| b.iter(|| calc_whd(black_box(&cons), black_box(&read), black_box(&quals), 17)),
        );
        group.bench_with_input(
            BenchmarkId::new("bounded", format!("m{m}_n{n}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    calc_whd_bounded(
                        black_box(&cons),
                        black_box(&read),
                        black_box(&quals),
                        17,
                        100,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_hdc_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdc_pair_scan");
    let (m, n) = (510usize, 62usize);
    let cons = sequence(m, 3);
    // A read sampled from the consensus: realistic pruning behaviour.
    let read = cons.slice(100, 100 + n);
    let quals = Qual::uniform(35, n).unwrap();
    group.throughput(Throughput::Elements(((m - n + 1) * n) as u64));
    for (name, cfg) in [
        ("serial_pruned", HdcConfig::serial()),
        (
            "serial_naive",
            HdcConfig {
                pruning: false,
                ..HdcConfig::serial()
            },
        ),
        ("data_parallel", HdcConfig::data_parallel()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| run_pair(black_box(&cons), black_box(&read), black_box(&quals), cfg))
        });
    }
    // The jump-to-outcome sweep on the dispatched kernel against the
    // cycle-stepped reference, on the same fixtures (it returns the
    // identical PairRun). The layout is built outside the timing loop,
    // as deployment builds it once per target.
    let block = CandidateBlock::from_bases_rows(&[cons.bases()]);
    let sweep_read = SweepRead::new(read.bases(), &quals);
    for (name, cfg) in [
        ("serial_pruned_sweep", HdcConfig::serial()),
        ("data_parallel_sweep", HdcConfig::data_parallel()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                run_read_sweep(
                    black_box(&block),
                    black_box(&sweep_read),
                    kernel::active(),
                    cfg,
                )
            })
        });
    }
    group.finish();
}

/// Every runnable kernel (scalar, SWAR, each `std::arch` ISA the host
/// supports) through both execution modes — per-pair scans and the
/// structure-of-arrays batch sweep — on the sparse and dense fixture
/// shapes, plus the batch sweep under the serial key on a pruning read.
/// This is the acceptance row for the explicit-SIMD engine: on the dense
/// shape the widest SIMD kernel must clear 2x over SWAR.
fn bench_kernel_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_dispatch");
    let (n, candidates) = (250usize, 8usize);
    let m = n + 448;
    let quals = Qual::uniform(35, n).unwrap();
    let cfg = HdcConfig {
        pruning: false,
        ..HdcConfig::data_parallel()
    };
    let cons: Vec<Sequence> = (0..candidates).map(|i| sequence(m, i + 1)).collect();
    let rows: Vec<&[Base]> = cons.iter().map(Sequence::bases).collect();
    let block = CandidateBlock::from_bases_rows(&rows);
    // Sparse: a read sampled from one candidate. Dense: an unrelated read.
    let sparse = cons[0].slice(17, 17 + n);
    let dense = sequence(n, 77);
    group.throughput(Throughput::Elements((candidates * (m - n + 1) * n) as u64));
    for (shape, read) in [("sparse", &sparse), ("dense", &dense)] {
        let sweep_read = SweepRead::new(read.bases(), &quals);
        for kind in KernelKind::available() {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_pair"), shape),
                &(),
                |b, ()| {
                    b.iter(|| {
                        for row in &rows {
                            let one = CandidateBlock::from_bases_rows(std::slice::from_ref(row));
                            let pair_read = SweepRead::new(read.bases(), black_box(&quals));
                            black_box(run_read_sweep(black_box(&one), &pair_read, kind, cfg));
                        }
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_batch"), shape),
                &(),
                |b, ()| {
                    b.iter(|| run_read_sweep(black_box(&block), black_box(&sweep_read), kind, cfg))
                },
            );
        }
    }
    // Serial-pruned: a read cut from the middle of candidate 0 with a
    // substitution every 50 bases (2%), swept under the serial key (one
    // base per cycle, immediate pruning), so offsets far from the true
    // placement stop at their prune point. The throughput counts the
    // bases the pruned scans visit, the same for every kernel.
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
    let serial = HdcConfig::serial();
    let visited: u64 = run_read_sweep(&block, &serial_read, KernelKind::Scalar, serial)
        .iter()
        .map(|run| run.comparisons)
        .sum();
    group.throughput(Throughput::Elements(visited));
    for kind in KernelKind::available() {
        group.bench_with_input(
            BenchmarkId::new(format!("{kind}_batch"), "serial_pruned"),
            &(),
            |b, ()| {
                b.iter(|| run_read_sweep(black_box(&block), black_box(&serial_read), kind, serial))
            },
        );
    }
    group.finish();
}

/// Every (read, candidate) pair of the 22-autosome bench-profile workload
/// at scale 5e-4 through the sweep entry points on every kernel:
/// `dense_sweep`, the dense sweep of each pair on its own
/// (`whd_range` over every offset, then `fold_whds`; ragged offset
/// counts, about half of them one partial 64-offset block);
/// `target_dense` and `target_serial`, the same pairs as the IRACC and
/// serial keys' cold oracles run them, whole targets through
/// `simulate_target_fast_with`, where each alternative reuses the
/// reference's entries on the windows they share; and `serial_sweep`,
/// each pair's whole serial sweep on its own (the shape that dominates
/// the Figure 9 sweep: 62-base reads, about 96% of offsets pruned). The
/// throughput is in offsets per sweep.
fn bench_kernel_mix(c: &mut Criterion) {
    let targets: Vec<_> = bench_workload(5e-4)
        .autosomes()
        .iter()
        .flat_map(|chrom| chrom.targets.iter().cloned())
        .collect();
    let (iracc, serial) = (FpgaParams::iracc(), FpgaParams::serial());
    let mix: Vec<(CandidateBlock, Vec<SweepRead>)> = targets
        .iter()
        .map(|t| {
            let reads = t
                .reads()
                .iter()
                .map(|r| SweepRead::new(r.bases().bases(), r.quals()))
                .collect();
            (CandidateBlock::from_target(t), reads)
        })
        .collect();
    let pairs: Vec<(&CandidateBlock, usize, &SweepRead)> = mix
        .iter()
        .flat_map(|(block, reads)| {
            reads
                .iter()
                .flat_map(move |read| (0..block.num_candidates()).map(move |i| (block, i, read)))
        })
        .collect();
    let offsets: u64 = pairs
        .iter()
        .map(|&(block, i, read)| (block.len(i) - read.len() + 1) as u64)
        .sum();
    let mut group = c.benchmark_group("kernel_mix");
    group.sample_size(10);
    group.throughput(Throughput::Elements(offsets));
    let mut whds = Vec::new();
    let mut words = ReadWords::new();
    for kind in KernelKind::available() {
        group.bench_with_input(BenchmarkId::new("dense_sweep", kind), &(), |b, ()| {
            b.iter(|| {
                for &(block, i, read) in &pairs {
                    whds.resize(block.len(i) - read.len() + 1, 0u16);
                    let prepared = read.prepare(kind, &mut words);
                    kernel::whd_range(&prepared, block.row_padded(i), 0, &mut whds);
                    black_box(kernel::fold_whds(kind, DenseSweep::START, 0, &whds));
                }
            })
        });
        for (name, params) in [("target_dense", &iracc), ("target_serial", &serial)] {
            group.bench_with_input(BenchmarkId::new(name, kind), &(), |b, ()| {
                b.iter(|| {
                    for target in &targets {
                        black_box(simulate_target_fast_with(target, params, kind));
                    }
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("serial_sweep", kind), &(), |b, ()| {
            b.iter(|| {
                for &(block, i, read) in &pairs {
                    black_box(kernel::serial_sweep(
                        kind,
                        block.row_padded(i),
                        block.len(i),
                        read.codes(),
                        read.scores(),
                    ));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_calc_whd,
    bench_hdc_scan,
    bench_kernel_dispatch,
    bench_kernel_mix
);
criterion_main!(benches);
