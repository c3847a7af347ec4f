#!/usr/bin/env bash
# Builds the qosperf benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash qosperf/run.sh --workload live-episodes --seed 1 --seconds 30 --trace 0
#
# The build cache and binary stay inside the checkout (.bench_build), so
# the benchmark reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR"

(cd "$root/qosperf" && go build -o "$out/qosperf" .) >&2
exec "$out/qosperf" "$@"
