#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout this script lives in, then runs it with the given arguments.
# The Go build cache and every temporary file (the TCP jobs' scratch
# directories included) stay inside .bench_build/ as well, so a run reads
# and writes nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/scalparc-bench" .
exec "$out/scalparc-bench" "$@"
