#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it, keeping every file
# the build writes (object cache, binary, toolchain bookkeeping) under
# .bench_build/ of the checkout. All arguments go to the harness; see
# bench/README.md. Run from the root of the checkout.
set -euo pipefail

# Without the program there is nothing to build; say so before any tool runs.
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench/run.sh: no go.mod and internal/ here: run from the root of a checkout that holds the program" >&2
	exit 3
fi

build="$PWD/.bench_build"
# The go command's configuration lives under the build directory too. A fresh
# one would make every go command start a telemetry side process that outlives
# it, so telemetry is off there before the first go command runs.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/go-cache" \
GOMODCACHE="$build/go-mod" \
XDG_CONFIG_HOME="$build/config" \
GOENV=off GOTOOLCHAIN=local \
	go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
