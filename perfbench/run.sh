#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload fresh --seed 1 --seconds 25 --trace 0
# Build outputs (binary, Go build cache, temp dirs, and the go command's
# own files, which it keeps under HOME) stay in .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
