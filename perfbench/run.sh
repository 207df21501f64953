#!/usr/bin/env bash
# Builds rhserved and the benchmark program from the checkout in the
# current directory, then runs the program with the given arguments:
#
#   bash perfbench/run.sh --workload measure-mix --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all
#
# Every build product, Go cache and scratch file stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"

export GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
# With telemetry in its default "local" mode the go command forks a
# detached child that outlives it; turn telemetry off so that a run
# leaves no process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

if [ ! -f go.mod ] || [ ! -d cmd/rhserved ]; then
	echo "perfbench: run from the root of a rowhammer checkout (no go.mod or cmd/rhserved here)" >&2
	exit 1
fi
go build -o "$build/bin/rhserved" ./cmd/rhserved
(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -rhserved "$build/bin/rhserved" -workdir "$build" -digests "$here/digests.json" "$@"
