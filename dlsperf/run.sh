#!/usr/bin/env bash
# Builds dlsd and the dlsperf benchmark from the checkout's sources and runs one
# benchmark invocation. Run from the repository root:
#
#	bash dlsperf/run.sh --workload repeat --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the current directory: the Go build cache, both binaries and the traces of
# --trace 1 runs. Ledger directories made there are removed when the run
# ends.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/dlsperf"
mkdir -p "$out"

# Keep the toolchain's caches, settings and telemetry counters inside the
# checkout, and the toolchain offline.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export HOME="$out/home"
mkdir -p "$HOME"

go build -o "$out/dlsd" ./cmd/dlsd
(cd dlsperf && go build -o "$out/dlsperf" .)

exec "$out/dlsperf" --dlsd "$out/dlsd" --work-dir "$out" "$@"
