#!/usr/bin/env bash
# Builds trajserve and the trajbench program from the checkout's sources
# and runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/
# (ignored by git), including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off
# trajserve is built from the main module, trajbench from its own.
go build -o "$out/bin/trajserve" ./cmd/trajserve
(cd perfbench && go build -o "$out/bin/trajbench" .)
exec "$out/bin/trajbench" -trajserve "$out/bin/trajserve" -out "$out" "$@"
