#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument passes through to the program (see README.md). The build cache
# lives in .bench_build so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -buildvcs=false -o "$build/laxbench" .
exec "$build/laxbench" "$@"
