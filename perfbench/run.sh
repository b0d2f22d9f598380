#!/usr/bin/env bash
# Builds the perfbench program and the programs it measures (cmd/repro,
# cmd/pland) from the checkout's sources, then runs perfbench.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_all --seed 42 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes under
# .bench_build/ in the current directory, including the Go build cache.
set -eu

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
# The go command keeps its env file and telemetry counters in the user
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go build -C perfbench -o "$out/perfbench" . >&2
go build -o "$out/repro" ./cmd/repro >&2
go build -o "$out/pland" ./cmd/pland >&2

exec "$out/perfbench" -root "$root" -bin "$out" "$@"
