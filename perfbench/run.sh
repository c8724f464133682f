#!/usr/bin/env bash
# Builds the fleet server and the benchmark from this checkout's sources,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload fresh --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/wideleakfleet" repro/cmd/wideleakfleet && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --fleet-bin "$out/wideleakfleet" "$@"
