#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash benchmark/run.sh --workload eval_short --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, module cache, temp files, telemetry) stays under .bench_build, or
# $CARGO_TARGET_DIR when that is set, so the run touches nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOPATH=$out/gopath
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off

(cd "$root/benchmark" && go build -o "$out/dgr-benchmark" .) >&2
exec "$out/dgr-benchmark" --out "$out/trace" "$@"
