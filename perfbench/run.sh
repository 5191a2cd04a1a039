#!/usr/bin/env bash
# run.sh — build the benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload regen-cold --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --record      # re-record perfbench/reference.json
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, scratch stores, traces, result reports)
# goes under .bench_build/perfbench in the current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-buildvcs=false GOENV=off

(cd perfbench && go build -o "$out/perfbench" .) >&2

commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -out "$out" -commit "$commit" "$@"
