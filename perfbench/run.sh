#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload large-3d --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the trace files go to .bench_build in
# the checkout; nothing is fetched and nothing outside the checkout is
# written. Without the library's source next to perfbench/ the build fails
# and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
