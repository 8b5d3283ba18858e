#!/usr/bin/env bash
# One full set of osprey_bench: 5 untraced + 1 traced rep per workload,
# interleaved round-robin across the workloads, every metric printed by
# name with its unit, median, quartiles and n.
#
#   bench/osprey_bench/run_benchmark.sh [--seed N] [--sets 2]
#       [--out results.json] [--smoke]
#
# --sets 2 runs two full sets of the same build and prints the
# per-metric agreement table (how bench/osprey_bench/baseline/ was made).
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" --full-set "$@"
