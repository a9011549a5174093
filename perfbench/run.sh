#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. `bash perfbench/run.sh --workload train --seed 1 --seconds 12 --trace 0`.
# Run from the repository root. Everything it builds or writes stays under
# the root: the binary and Go build cache in .bench_build/, reports, traces
# and work-count records in .bench_out/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench/run.sh: run from the repository root" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
  TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
  GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
