#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload bulk64k_udp --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, build scratch files, the toolchain's
# local telemetry (kept under the user config directory) and the binary
# live under .bench_build in the checkout, so apart from the Go toolchain
# the run reads and writes nothing outside it. Without the repository's
# sources next to perfbench/ the build fails and so does this script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
cd "$root/perfbench"
go build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
