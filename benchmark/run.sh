#!/usr/bin/env bash
# The benchmark's one command. With no arguments: every workload, end to
# end and per layer, every metric printed by name with its unit; exits
# non-zero if any correctness check fails. With arguments (the driver's
# `--workload W --seed N --seconds S --trace T`), they are passed through.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- all --seed 2005
fi
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
