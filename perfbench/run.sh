#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload los_fig5 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory, and the
# toolchain never reaches for the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
