#!/usr/bin/env bash
# run.sh builds the benchmark of record from source and runs it. Run it from
# the repository root:
#
#	bash perfbench/run.sh --workload spms-400 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, profiles and spans stay under
# .bench_build/ in the current directory, so nothing is written outside the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOMAXPROCS=2

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
