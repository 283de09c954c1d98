#!/usr/bin/env bash
# Builds the benchmark and gridd from this checkout's sources into
# .bench_build/ and runs the benchmark with the given arguments, e.g.
#
#   bash gridbench/run.sh --workload bursty-overload --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build or the run writes
# stays under .bench_build/ (Go build cache included).
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d cmd/gridd || ! -f gridbench/go.mod ]]; then
	echo "gridbench: run from the repository root (go.mod, internal/, cmd/gridd/ and gridbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/config" "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOPROXY=off
export GOSUMDB=off
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"

go build -o "$out/gridd" ./cmd/gridd
(cd gridbench && go build -o "$out/gridbench" .)
exec "$out/gridbench" --gridd "$out/gridd" --workdir "$out/work" "$@"
