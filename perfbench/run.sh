#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it:
#   sh perfbench/run.sh --workload reproduce|sweep-warm|serve --seed N --seconds S --trace 0|1
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binary, scratch stores) stays under .bench_build/.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out"
export GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
