#!/usr/bin/env bash
# Builds the benchmark harness and cmd/pscnode into .bench_build/ at the
# root of the checkout (Go's build cache and work directory too, so nothing
# is written outside the checkout), then runs the harness with the given
# arguments.
# BENCHMARK.json names this script as the benchmark's command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(
	cd "$here"
	go build -o "$out/bench" .
	go build -o "$out/pscnode" psclock/cmd/pscnode
)
exec "$out/bench" "$@"
