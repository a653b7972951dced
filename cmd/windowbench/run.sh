#!/usr/bin/env bash
# Builds cmd/windowd and the benchmark into .bench_build/ and runs the
# benchmark with the given arguments.  Run it from the repository root:
#
#   bash cmd/windowbench/run.sh --workload svc-saturate --seed 1 --seconds 10 --trace 0
#   bash cmd/windowbench/run.sh -seed 1 -out runs.jsonl      # every workload
#
# Every file the toolchain and the benchmark write stays under
# .bench_build/; the builds are incremental, so only the first run of a
# checkout compiles anything.
set -euo pipefail

root=$PWD
build=$root/.bench_build
if [[ ! -f $root/go.mod || ! -f $root/cmd/windowbench/go.mod ]]; then
	echo "windowbench: run from the repository root (go.mod not found)" >&2
	exit 1
fi
mkdir -p "$build/gocache" "$build/gotmp" "$build/home" "$build/work"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go build -o "$build/windowd" ./cmd/windowd
(cd cmd/windowbench && go build -o "$build/windowbench" .)
exec "$build/windowbench" -windowd "$build/windowd" -workdir "$build/work" -spans "$build" "$@"
