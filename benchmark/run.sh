#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a Go module
# of its own in this directory) with every cache and temp file inside the
# checkout, then runs it from the root of the checkout. The benchmark
# itself builds bpmf-serve and bpmf-trainer from the checkout's source.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# the go command keeps its env file and telemetry counters in the user's config directory
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" "$@"
