#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from, then runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload train-cnn --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary in .bench_build/, run records and spans in
# .bench_out/. Build output goes to standard error, so the benchmark's
# result is the last line of standard output.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local

(cd "$src" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" --out "$root/.bench_out" "$@"
