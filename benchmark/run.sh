#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# Go toolchain writes (build cache, temp files, module cache, its own
# telemetry counters, the binary) goes under .bench_build/ so a run reads
# and writes only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$out/hopi-benchmark" . >&2
cd "$root"
exec "$out/hopi-benchmark" "$@"
