#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload interact --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (the Go build cache, the binary, span files) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out" "$@"
