#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs one workload:
#
#   bash abrbench/run.sh --workload fleet-live --seed 1 --seconds 15 --trace 0
#
# Run from the root of the repository. The Go build cache, module cache,
# telemetry and temporary files and the binary stay under .bench_build/ in
# the checkout; the build needs no network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/abrbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C abrbench build -o "$out/abrbench" .
exec "$out/abrbench" "$@"
