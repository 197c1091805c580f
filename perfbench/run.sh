#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload cell-busy --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# traced runs' spans go to .bench_build/, so nothing is written outside
# the checkout. The build needs the repository's go.mod one level up;
# without it the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" # go's telemetry, env file and work dirs
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
