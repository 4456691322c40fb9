#!/usr/bin/env bash
# Builds the programs under test and the benchmark from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tuple-feed --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# benchmark's data directories all live under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/" ./cmd/focusd ./cmd/focusrouter ./cmd/experiments
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
