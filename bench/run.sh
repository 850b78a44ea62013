#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the repository
# root with the given arguments, for example:
#
#   bash bench/run.sh --workload tier1-grid --seed 1 --seconds 15 --trace 0
#
# The harness is its own Go module (bench/go.mod) that builds against the
# repository's packages through a replace directive. All build state (Go
# build cache, temporary files, the binary) stays under .bench_build/ in
# the repository root, and the build never touches the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -buildvcs=false -o "$out/xuibench-harness" .)
cd "$root"
exec "$out/xuibench-harness" "$@"
