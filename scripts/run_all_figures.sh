#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation.
#
# Usage: scripts/run_all_figures.sh [scale]
#   scale — fraction of the paper's full NA12878 workload (default 1e-3;
#           the recorded results in EXPERIMENTS.md use 5e-3).
#
# Outputs: results/<name>.log (full console text) plus the
# results/<name>.csv + results/<name>.txt pairs every table emits.
# Every modeled output is a deterministic function of (scale, seed), so
# at 5e-3 the committed results/ are the reference: after a run,
#
#   git diff --exit-code -- 'results/*.csv' 'results/*.txt' \
#       'results/*.json' ':(exclude)results/kernel_microbench.*'
#
# must exit 0 (kernel_microbench times the host; the logs carry host
# wall clocks). Host time is perfbench's to measure (perfbench/README.md).
#
# Knobs:
#   IR_THREADS         worker threads for the figure binaries
#                      (default: host core count)
#   IR_KERNEL          force a WHD kernel (scalar|swar|avx2|avx512|neon);
#                      unset auto-detects the widest ISA

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-1e-3}"
export IR_SCALE="$SCALE"
# Default the worker-thread count to the host core count. The figure
# binaries read IR_THREADS themselves, so it must be exported.
export IR_THREADS="${IR_THREADS:-$(nproc 2>/dev/null || echo 1)}"
mkdir -p results

cargo build --release -p ir-bench
cargo build --release --bin ir-cli

# The WHD kernel every figure binary will dispatch to (IR_KERNEL, or the
# widest ISA the host supports).
KERNEL="$(./target/release/ir-cli kernel --format name)"
./target/release/ir-cli kernel | tee results/kernel.log

echo "scale $SCALE, $IR_THREADS thread(s), kernel $KERNEL"
echo

run() {
    local name="$1"
    echo "=== $name (IR_SCALE=$IR_SCALE) ==="
    # Full console output goes to .log; the binaries themselves write the
    # results/<name>.csv + results/<name>.txt table pairs.
    ./target/release/"$name" | tee "results/$name.log"
    echo
}

# Background figures (cheap, analytic).
run kernel_microbench
run fig2_pipeline_breakdown
run table1_isa
run table2_machines
run table_resources
run frequency_study
run complexity_table

# Figure 9 (left): the per-chromosome speedup sweep.
run fig9_speedup

# Microarchitecture and scheduling.
run fig7_scheduling
run probe_variance
run fig8_data_parallel
run pruning_ablation
run dma_overhead
run ablation_interconnect
run ablation_units
run ablation_scheduling
run multi_fpga

run accuracy_eval

# Observability and resilience.
run telemetry_report
run resilience_study

# Shape-family characterization.
run workload_atlas

# Serving layer.
run serve_load
run serve_fleet

# Evaluation headliners.
run fig3_ir_fraction
run fig9_cost
run hls_comparison
run gpu_comparison
run headline_claims

echo "all figures regenerated under results/ at scale $SCALE"
