#!/bin/sh
# Run every workload once untraced (end-to-end metrics) and once traced
# (per-layer metrics).  Usage, from the repository root:
#     sh benchmarks/run_all.sh [SEED]
set -e
seed=${1:-1}
for workload in point-analytic point-mc sweep-ref selftest; do
    for trace in 0 1; do
        python3 benchmarks/run.py --workload "$workload" --seed "$seed" --seconds 20 --trace "$trace"
    done
done
