#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of the checkout. Everything
# the build and the run write — Go's build cache, its temporary files, the
# go command's own counters, the binary, the stores the workloads fill —
# stays inside the checkout, under .bench_build/ and .bench-tmp-*/ (both in
# .gitignore).
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$bench" && go build -o "$out/causeway-bench" .)
cd "$root"
exec "$out/causeway-bench" "$@"
