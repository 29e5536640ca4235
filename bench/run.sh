#!/usr/bin/env bash
# Builds the benchmark from source and runs it; this is BENCHMARK.json's
# command. Everything it writes — build cache, binary, span files — goes
# under .bench_build/ at the root of the checkout. Run it from anywhere:
#
#   bash bench/run.sh                                  # every workload, end-to-end table
#   bash bench/run.sh --workload train-96 --seed 7     # one workload
#   bash bench/run.sh --trace 1                        # per-layer tables and span files
#   bash bench/run.sh --selfcheck                      # two sets, compared against the bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .) >&2

cd "$root"
exec "$build/bench" "$@"
