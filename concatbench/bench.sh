#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash concatbench/bench.sh --workload table2-inproc --seed 42 --seconds 30 --trace 0
#   bash concatbench/bench.sh --smoke
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, per-run
# scratch directories and traces. The build needs no network: the module
# has no dependencies beyond the Concat module one directory up.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off GOWORK=off CGO_ENABLED=0

(cd "$bench_dir" && go build -o "$out/concatbench" .) >&2
cd "$root"
exec "$out/concatbench" "$@"
