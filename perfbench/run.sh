#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#   sh perfbench/run.sh --workload scale|sweep|service --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. The Go build cache and the binary
# live under .bench_build, so the first run in a fresh checkout compiles
# the standard library too; later runs reuse the cache.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
