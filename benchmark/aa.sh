#!/usr/bin/env bash
# A/A: the whole end-to-end set twice on the same commit. Exits non-zero
# if any metric's two medians differ by more than its bound, if any
# operation failed, or if the simulated results are not bit-identical.
set -euo pipefail
exec bash "$(dirname "$0")/run.sh" aa "$@"
