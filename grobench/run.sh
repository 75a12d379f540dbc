#!/usr/bin/env bash
# Builds grophecyd and the benchmark from this checkout, then runs the
# benchmark from the checkout root. All build output and scratch files
# stay under .bench_build/ in the checkout.
#
#   bash grobench/run.sh --workload project-hot --seed 1 --seconds 15 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
# XDG_CONFIG_HOME and GOPATH keep the go command's own state (telemetry
# counters, env file) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# With telemetry on (the default "local" mode for a fresh config dir),
# the go command forks a detached upload sidecar that can outlive this
# script. "go telemetry off" records the mode without starting one.
go telemetry off

go build -o "$out/grophecyd" ./cmd/grophecyd
(cd grobench && go build -o "$out/grobench" .)
exec "$out/grobench" -root "$root" -daemon "$out/grophecyd" -out "$out/runs" "$@"
