#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload paper|geometry|audit --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary result caches) stays under
# .bench_build/ in the current directory; CARGO_TARGET_DIR names it when
# set. The benchmark is a module of its own that builds against the
# repository one directory up, so outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/mod
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GO111MODULE=on
export TMPDIR=$out/tmp

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
