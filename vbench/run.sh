#!/usr/bin/env bash
# Builds the vbench binary and the vacsem-serve binary from the sources
# of the checkout it is run in, then runs vbench.
#
# Usage, from the repository root:
#
#	bash vbench/run.sh --workload adder-med --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binaries, Go build cache, temporary
# files, per-layer output) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOWORK=off

(cd "$root/vbench" && go build -o "$out/bin/vbench" .)
go build -o "$out/bin/vacsem-serve" ./cmd/vacsem-serve

exec "$out/bin/vbench" -server "$out/bin/vacsem-serve" -out "$out/out" "$@"
