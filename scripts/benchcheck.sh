#!/usr/bin/env bash
# benchcheck.sh — CI allocation-regression gate over BENCH_allocs.txt.
#
# BENCH_allocs.txt is a header line (commit, date, benchtime) and the raw
# Benchmark lines of one run of
#
#   go test -run '^$' -bench '^(<names>)$' -benchmem -benchtime 1x \
#     ./internal/sim ./internal/serving
#
# where <names> are its benchmarks joined with '|'. The gate reruns that
# command and compares allocs/op benchmark by benchmark:
#
#   * allocs/op above baseline * (1 + THRESHOLD/100) + SLACK FAILS —
#     allocation counts are deterministic, so a jump is a real hot-path
#     regression, not machine noise (SLACK absorbs one-shot set-up, such
#     as the first call's warp-program build at -benchtime 1x);
#   * a baselined benchmark that prints no result (deleted, renamed or
#     failing) FAILS;
#   * ns/op is printed for context but never fails — wall clock on shared
#     CI runners is advisory only.
#
# To re-record after an intentional change, run the command above and
# replace BENCH_allocs.txt's Benchmark lines and header with its output
# and the current commit and date.
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD=25
SLACK=64
BASE=BENCH_allocs.txt

names=$(awk '/^Benchmark/ { sub(/-[0-9]+$/, "", $1); print $1 }' "$BASE" | paste -sd'|' -)
[ -n "$names" ] || { echo "benchcheck: no baselines in $BASE" >&2; exit 1; }
echo "benchcheck: $BASE (threshold ${THRESHOLD}%+${SLACK}, benchtime 1x)" >&2

FAIL=0
if ! out=$(go test -run '^$' -bench "^($names)\$" -benchmem -benchtime 1x ./internal/sim ./internal/serving 2>&1); then
	printf '%s\n' "$out" >&2
	echo "benchcheck: go test failed" >&2
	FAIL=1
fi

# Join the current run against the baseline on the name (less its
# -GOMAXPROCS suffix), in baseline order.
if ! printf '%s\n' "$out" | awk -v thr="$THRESHOLD" -v slack="$SLACK" '
	function parse(   i) {
		name = $1; sub(/-[0-9]+$/, "", name)
		ns = ""; allocs = ""
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") ns = $i
			if ($(i+1) == "allocs/op") allocs = $i
		}
	}
	FNR == NR { if (/^Benchmark/) { parse(); order[++n] = name; ba[name] = allocs; bns[name] = ns }; next }
	/^Benchmark/ { parse(); if (allocs != "") { ca[name] = allocs; cns[name] = ns } }
	END {
		for (j = 1; j <= n; j++) {
			name = order[j]
			if (!(name in ca)) {
				printf "FAIL %s: no result (baseline allocs/op %s)\n", name, ba[name]
				bad = 1
				continue
			}
			limit = ba[name] * (1 + thr / 100) + slack
			delta = bns[name] > 0 ? sprintf("%+.0f%%", 100 * (cns[name] - bns[name]) / bns[name]) : "n/a"
			verdict = "ok  "
			if (ca[name] > limit) {
				verdict = "FAIL"
				bad = 1
			}
			printf "%s %s allocs/op %s -> %s (limit %.0f); ns/op %s -> %s [%s, advisory]\n",
				verdict, name, ba[name], ca[name], limit, bns[name], cns[name], delta
		}
		exit bad
	}
' "$BASE" -; then
	FAIL=1
fi

if [ "$FAIL" != 0 ]; then
	echo "benchcheck: allocation gate failed — if the change is intended, re-record $BASE (see this script's header)" >&2
	exit 1
fi
echo "benchcheck: all allocation baselines hold" >&2
