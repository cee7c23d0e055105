#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the
# repository root:
#
#   bash _perfbench/run.sh --workload neuro-e2e --seed 1 --seconds 30 --trace 0
#
# Every build product (binary, Go build cache, Go config) stays under
# .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
