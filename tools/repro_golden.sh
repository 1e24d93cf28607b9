#!/usr/bin/env sh
# Reproduction golden: solve every point of Figures 2-5 and of the
# fixed-point ablation (tools/repro_golden) and compare against the
# checked-in tools/repro_golden.ndjson with zero tolerance — every N_p
# bit, iteration count and convergence flag must match. The report
# names the largest relative change per figure.
#
# The golden pins this toolchain's bits: regenerate it (repro_golden >
# tools/repro_golden.ndjson) only for a change that is meant to move the
# answers, and say by how much in the change's description.
#
# Usage: tools/repro_golden.sh [build-dir]   (default: build)
set -eu

build_dir=${1:-build}
tools_src=$(dirname "$0")
out=${TMPDIR:-/tmp}/repro_golden_$$.ndjson
trap 'rm -f "$out"' EXIT

"$build_dir/tools/repro_golden" > "$out"
"$build_dir/tools/ndjson_diff" "$out" "$tools_src/repro_golden.ndjson" \
  --rtol 0 --atol 0 --by figure
