#!/usr/bin/env bash
# Builds the benchmark program (olivebench) and the vnesimd daemon from this checkout,
# then runs olivebench with the given arguments. Run from the checkout
# root:  bash olivebench/run.sh --workload plan-r100 --seed 1 --seconds 15 --trace 0
# Every build product and the Go build cache stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C olivebench build -o "$out/olivebench" .
go build -o "$out/vnesimd" ./cmd/vnesimd
exec "$out/olivebench" "$@"
