#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash clusterbench/run.sh --workload fig2-points --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory: the Go build cache and temporary files, the
# binary, and the workloads' journals and spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/clusterbench" .)
exec "$out/clusterbench" "$@"
