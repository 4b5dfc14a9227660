#!/usr/bin/env bash
# Every workload at 1/50 size, end to end and traced (replicas, probes,
# correctness gate), in under 20 s once built; and BENCHMARK.json must be
# what the binary renders from src/bin/punch-benchmark/spec.rs.
set -euo pipefail
cd "$(dirname "$0")/.."
bash benchmark/run.sh manifest | diff - BENCHMARK.json
bash benchmark/run.sh all --seed 2005 --div 50 --seconds 1
