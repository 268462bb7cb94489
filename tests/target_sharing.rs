//! A built [`RealignmentTarget`] is an immutable shared value: clones
//! share one payload, the shape totals cached at build time equal the
//! [`TargetShape`](ir_system::genome::TargetShape) recomputation on every
//! workload family, and the fast unit simulation packs a target without
//! allocating per read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ir_system::fpga::unit::simulate_target_fast;
use ir_system::fpga::FpgaParams;
use ir_system::genome::{Qual, Read, RealignmentTarget};
use ir_system::workloads::ShapeFamily;

/// Counts the calling thread's allocations, so tests running on other
/// threads of this binary do not disturb a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only during thread teardown; nothing is measured then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Three consensuses and `reads` reads of 62 bases (the bench profile's
/// read length) with varied bases and qualities.
fn target_with_reads(reads: usize) -> RealignmentTarget {
    let reference = "ACGTTGCA".repeat(20);
    let mut builder = RealignmentTarget::builder(1_000)
        .reference(reference.parse().unwrap())
        .consensus("TTGCAACG".repeat(19).parse().unwrap())
        .consensus("GCAT".repeat(30).parse().unwrap());
    for j in 0..reads {
        let start = (j * 7) % 90;
        let bases = reference[start..start + 62].parse().unwrap();
        let quals: Vec<u8> = (0..62).map(|i| ((i * 13 + j) % 42) as u8).collect();
        let read = Read::new(
            format!("r{j}"),
            bases,
            Qual::from_raw_scores(&quals).unwrap(),
            start as u64,
        )
        .unwrap();
        builder = builder.read(read);
    }
    builder.build().unwrap()
}

#[test]
fn a_clone_shares_its_payload() {
    let target = target_with_reads(8);
    let clone = target.clone();
    assert!(std::ptr::eq(
        target.reads().as_ptr(),
        clone.reads().as_ptr()
    ));
    assert!(std::ptr::eq(
        target.consensuses().as_ptr(),
        clone.consensuses().as_ptr()
    ));
    assert_eq!(clone, target);

    // Equality is by content: an independently built copy is equal but
    // shares nothing, and a different target is not equal.
    let rebuilt = target_with_reads(8);
    assert!(!std::ptr::eq(
        target.reads().as_ptr(),
        rebuilt.reads().as_ptr()
    ));
    assert_eq!(rebuilt, target);
    assert_ne!(target_with_reads(9), target);
}

#[test]
fn cached_totals_equal_the_shape_recomputation() {
    let mut workloads: Vec<(String, Vec<RealignmentTarget>)> = ShapeFamily::ALL
        .iter()
        .map(|family| {
            let targets = family.profile().generator(1e-4).targets(12, 0xFA111E5);
            (family.name().to_string(), targets)
        })
        .collect();
    workloads.push((
        "bench".to_string(),
        ir_bench::bench_workload(1e-4).targets(40, 3),
    ));
    workloads.push(("hand-built".to_string(), vec![target_with_reads(200)]));
    for (name, targets) in &workloads {
        assert!(!targets.is_empty(), "{name}");
        for t in targets {
            let shape = t.shape();
            let consensus_bases: usize = shape.consensus_lens.iter().sum();
            let read_bases: usize = shape.read_lens.iter().sum();
            assert_eq!(t.total_consensus_bases(), consensus_bases as u64, "{name}");
            assert_eq!(t.total_read_bases(), read_bases as u64, "{name}");
            assert_eq!(t.input_bytes(), shape.input_bytes(), "{name}");
            assert_eq!(
                t.worst_case_comparisons(),
                shape.worst_case_comparisons(),
                "{name}"
            );
        }
    }
}

#[test]
fn fast_simulation_allocates_per_target_not_per_read() {
    let small = target_with_reads(8);
    let large = target_with_reads(200);
    for params in [FpgaParams::serial(), FpgaParams::iracc()] {
        // Settles the kernel dispatch and any other one-time set-up.
        drop(simulate_target_fast(&small, &params));
        let count = |target: &RealignmentTarget| {
            let before = allocations();
            let run = simulate_target_fast(target, &params);
            let used = allocations() - before;
            drop(run);
            used
        };
        let (small_allocs, large_allocs) = (count(&small), count(&large));
        assert!(small_allocs > 0);
        // No per-target `TargetShape` (whose two length `Vec`s made this 8).
        assert!(
            small_allocs <= 6,
            "{small_allocs} allocations under {params:?}"
        );
        assert_eq!(
            small_allocs, large_allocs,
            "8 reads vs 200 reads under {params:?}"
        );
    }
}
