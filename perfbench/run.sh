#!/usr/bin/env bash
# Builds the bilsh binary under test and the benchmark program from the
# source tree in the current directory, then runs the benchmark. Every
# build product, cache and scratch file stays under .bench_build/.
#
#   bash perfbench/run.sh --workload knn-batch --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base.jsonl new.jsonl
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/bilsh" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/bilsh not found)" >&2
	exit 2
fi
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go build -o "$out/bin/bilsh" ./cmd/bilsh
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bilsh "$out/bin/bilsh" -work "$out/work" -results "$out/results" "$@"
