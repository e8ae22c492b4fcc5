#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root.
# Everything the build and the run leave behind stays under .bench_build
# in the checkout: Go's build cache and temp files, the binary, scratch
# scene files, span files and results.json.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME is where the go command keeps its telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bgpvr-bench" .)
cd "$root"
exec "$build/bgpvr-bench" "$@"
