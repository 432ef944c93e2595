#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload uni-cold --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under the checkout's .bench_build
# (or $CARGO_TARGET_DIR when set): the Go build cache, the binary, the
# per-run reports and span files, and the WAL scratch directory.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
