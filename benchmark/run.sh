#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash benchmark/run.sh --workload gc-heavy --seed 1 --seconds 32 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout:
# the Go build cache, the binary and the spans of traced runs. The first
# run builds the standard library into that cache; later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME and the temporary directories keep the go command's own
# config, telemetry and scratch files in the checkout too; CGO_ENABLED=0
# keeps the C compiler out of the build.
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" CGO_ENABLED=0 \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/psgc-benchmark" .)
exec "$out/psgc-benchmark" "$@"
