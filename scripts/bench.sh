#!/usr/bin/env bash
# bench.sh — record the lamb pipeline's perf trajectory.
#
# Runs the hot-path benchmarks (Fig17/Fig18 trials, the Fig 20 large-f 2-D
# and Fig 22 large-f 3-D trials whose time the vertex cover dominates, the
# Fig 26 small-f point that perfbench's solve-3d workload also runs, its
# three reachability kernels alone (R_t fill, I_t fill, chain product),
# one oracle ReachOne query, BitmatMul, the Section 5 pipeline, the torus lamb solve (the Section 7
# class reduction) and the torus lamb-set check over its classes, the
# wormhole cycle loop, a class-table query, lambd's
# query core behind the wire backend, the wire codec, the AddFaults
# recompute, a class-table swap (build plus the post-swap query burst),
# the reliability-campaign trial loop, its scheduler on a small campaign and
# on perfbench's uneven campaign-2d grid,
# the traffic-live workload generation, its 2-round via search alone, and
# the whole traffic-live op
# (generate, build, live run), and per-packet route planning for
# every bake-off strategy) twice — LAMBMESH_WORKERS=1 and
# LAMBMESH_WORKERS=NumCPU — and writes BENCH_lamb.json with ns/op and
# allocs/op per (benchmark, workers) pair plus per-benchmark speedups. On a
# single-CPU machine only the workers=1 pass runs (there is nothing to
# compare against) and a "speedup_skipped" marker records why the speedup
# map is empty. The new recording is checked by benchcheck (shape plus the
# allocation budgets in scripts/benchcheck/budgets.json) before it replaces
# OUT, so a failed check leaves the previous recording in place. After a
# deliberate change in allocation behaviour, regenerate the budgets with
# `go run ./scripts/benchcheck -write`.
#
# Usage:
#   scripts/bench.sh            # run benchmarks, write BENCH_lamb.json
#   scripts/bench.sh --check    # validate BENCH_lamb.json's shape (CI)
#
# Env:
#   BENCHTIME   -benchtime value per benchmark (default 3x)
#   OUT         output file (default BENCH_lamb.json)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_lamb.json}"
BENCHTIME="${BENCHTIME:-3x}"
BENCH_RE='^(BenchmarkFig17Trial|BenchmarkFig18Trial|BenchmarkFig20Trial|BenchmarkFig22Trial|BenchmarkFig26TrialSmallF|BenchmarkReachKernels|BenchmarkOracleReachOne|BenchmarkBitmatMul|BenchmarkSec5LambSet|BenchmarkTorusLamb|BenchmarkVerifyLambSetTorus|BenchmarkWormholeRun|BenchmarkTrafficEngine|BenchmarkClassTableQuery|BenchmarkServerQuery|BenchmarkWireRoundTrip|BenchmarkAddFaults|BenchmarkClassTableSwap|BenchmarkCampaignTrial|BenchmarkCampaignRun|BenchmarkCampaignGrid|BenchmarkGenerateWorkload|BenchmarkChooseVias|BenchmarkLiveTrial|BenchmarkStrategyRoute)$'

if [ "${1:-}" = "--check" ]; then
    exec go run ./scripts/benchcheck -file "$OUT"
fi

NCPU="$(getconf _NPROCESSORS_ONLN)"
GMP="${GOMAXPROCS:-$NCPU}"
GOVER="$(go env GOVERSION)"
DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# run_pass WORKERS -> appends "name workers ns_per_op allocs_per_op" lines
run_pass() {
    local workers="$1"
    echo "bench.sh: pass workers=$workers (benchtime=$BENCHTIME)" >&2
    LAMBMESH_WORKERS="$workers" go test -run='^$' -count=1 \
        -bench "$BENCH_RE" -benchtime "$BENCHTIME" . |
    awk -v w="$workers" '
        /^Benchmark/ && /ns\/op/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            ns = ""; allocs = "0"
            for (i = 2; i <= NF; i++) {
                if ($i == "ns/op")     ns = $(i-1)
                if ($i == "allocs/op") allocs = $(i-1)
            }
            if (ns != "") print name, w, ns, allocs
        }'
}

# Preserve the "baseline" block across reruns: the rows recorded before the
# allocation-discipline work, kept for before/after comparison. Rows are one
# per line, so a line-range extraction is enough.
BASELINE=""
if [ -f "$OUT" ]; then
    BASELINE="$(sed -n '/^  "baseline": \[$/,/^  \],$/p' "$OUT")"
fi

TMP="$(mktemp)"
REC="$(mktemp)"
trap 'rm -f "$TMP" "$REC"' EXIT
run_pass 1 >"$TMP"
if [ "$NCPU" -gt 1 ]; then
    run_pass "$NCPU" >>"$TMP"
fi

awk -v ncpu="$NCPU" -v gmp="$GMP" -v gover="$GOVER" -v date="$DATE" -v benchtime="$BENCHTIME" '
    { ns[$1 "," $2] = $3; names[$1] = 1; lines[NR] = $0 }
    END {
        printf "{\n"
        printf "  \"schema\": \"lambmesh-bench/v1\",\n"
        printf "  \"date\": \"%s\",\n", date
        printf "  \"go\": \"%s\",\n", gover
        printf "  \"num_cpu\": %d,\n", ncpu
        printf "  \"gomaxprocs\": %d,\n", gmp
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"benchmarks\": [\n"
        for (i = 1; i <= NR; i++) {
            split(lines[i], f, " ")
            printf "    {\"name\": \"%s\", \"workers\": %s, \"ns_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
                f[1], f[2], f[3], f[4], (i < NR ? "," : "")
        }
        printf "  ],\n"
        # On a single-CPU machine only the workers=1 pass ran; say so
        # explicitly instead of leaving an ambiguous empty speedup map.
        if (ncpu == 1)
            printf "  \"speedup_skipped\": \"1 CPU: parallel pass not run, nothing to compare\",\n"
        printf "  \"speedup\": {\n"
        n = 0
        for (name in names) if (ncpu > 1 && (name "," 1) in ns && (name "," ncpu) in ns) order[++n] = name
        for (i = 1; i <= n; i++) {
            name = order[i]
            printf "    \"%s\": %.2f%s\n", name, ns[name "," 1] / ns[name "," ncpu], (i < n ? "," : "")
        }
        printf "  }\n"
        printf "}\n"
    }' "$TMP" >"$REC"

if [ -n "$BASELINE" ]; then
    awk -v b="$BASELINE" '/^  "speedup": \{$/ { print b } { print }' "$REC" >"$TMP" && cp "$TMP" "$REC"
fi

if ! go run ./scripts/benchcheck -file "$REC"; then
    echo "bench.sh: check failed; $OUT left unchanged" >&2
    exit 1
fi
chmod 0644 "$REC"
mv "$REC" "$OUT"
echo "bench.sh: wrote $OUT (num_cpu=$NCPU)" >&2
