#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation: each
# figure the `figures` binary lists (its registry, in paper order).
#
# Usage: scripts/run_all_figures.sh [scale]
#   scale — fraction of the paper's full NA12878 workload (default 1e-3;
#           the committed results/ use 5e-3).
#
# Outputs: results/<name>.log (the figure's console report) plus the
# CSV/TXT tables and JSON reports each figure writes. Every output is a
# deterministic function of (scale, seed), so at 5e-3 the committed
# results/ are the reference: after a run,
#
#   git diff --exit-code -- results/
#
# must exit 0. Host time is perfbench's to measure (perfbench/README.md).
#
# Knobs:
#   IR_THREADS         worker threads for the figures (default: host core
#                      count; no output depends on it)
#   IR_KERNEL          force a WHD kernel (scalar|swar|avx2|avx512|neon);
#                      unset auto-detects the widest ISA

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-1e-3}"
export IR_SCALE="$SCALE"
export IR_THREADS="${IR_THREADS:-$(nproc 2>/dev/null || echo 1)}"
mkdir -p results

cargo build --release -p ir-bench --bin figures
cargo build --release --bin ir-cli

# The WHD kernel every figure will dispatch to (IR_KERNEL, or the widest
# ISA the host supports). Console only: it depends on the host.
./target/release/ir-cli kernel
echo "scale $SCALE, $IR_THREADS thread(s)"
echo

for name in $(./target/release/figures --list); do
    echo "=== $name (IR_SCALE=$IR_SCALE) ==="
    ./target/release/figures "$name" | tee "results/$name.log"
    echo
done

echo "all figures regenerated under results/ at scale $SCALE"
