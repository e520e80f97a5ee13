#!/usr/bin/env bash
# Builds the topoinv server and the perfbench program from the sources of the
# checkout it is run from, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload ask-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Everything it writes (the Go build cache,
# the binaries, server stores and logs, saved results) stays under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/topoinv" ]; then
	echo "perfbench: $root holds no topoinv sources; run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$build/topoinv" ./cmd/topoinv
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -server "$build/topoinv" -work "$build" "$@"
