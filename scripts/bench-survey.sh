#!/usr/bin/env sh
# Quick survey determinism check.
#
# Runs the capped Table 1 survey twice — once forced sequential
# (PUNCH_JOBS=1), once on the default worker pool — and diffs the two
# outputs. Exits non-zero if they differ, i.e. if parallel execution
# ever changes a result. The full survey's pinned artifacts
# (results/table1.txt, results/BENCH_survey.json — no host time in
# either; host time is measured only in benchmark/) come from
# `punch-bench table1`; this script is the cheap regression guard.
#
# Usage: scripts/bench-survey.sh  (from the repo root)
set -eu

cd "$(dirname "$0")/.."

out_seq=$(mktemp)
out_par=$(mktemp)
trap 'rm -f "$out_seq" "$out_par"' EXIT

echo "== capped survey, sequential (PUNCH_JOBS=1) =="
PUNCH_JOBS=1 cargo run --release --quiet --example nat_survey -- --quick > "$out_seq"
echo "== capped survey, worker pool (default PUNCH_JOBS) =="
cargo run --release --quiet --example nat_survey -- --quick > "$out_par"

if diff -u "$out_seq" "$out_par"; then
    echo "OK: survey output is byte-identical sequential vs parallel"
else
    echo "FAIL: survey output differs between sequential and parallel runs" >&2
    exit 1
fi
