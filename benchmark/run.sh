#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): build the
# package's test binary from the checkout's source, then run it with the
# arguments given. The binary is the driver because wall-clock reads are
# only allowed in _test.go files (see workloads.go).
#
#   bash benchmark/run.sh --workload sor_local --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --workload sor_local --seed 1 --seconds 10 --trace 1
#   bash benchmark/run.sh --compare out/setA out/setB
#
# It runs from benchmark/, so relative paths in the arguments (-out,
# -compare) are relative to this directory. Build products and the Go
# build cache stay inside the checkout, under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go test -c -o "$build/benchmark.test" . >&2
exec "$build/benchmark.test" "$@"
