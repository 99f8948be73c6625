#!/bin/sh
# Tier-1 verification: gofmt, vet, build, run the full test suite, re-run the
# concurrency-sensitive packages under the race detector, and run
# planbench's own tests. The experiment reproduction tests are
# minutes-long already and ~10x slower under -race (they exceed go test's
# per-package timeout on small machines), so the race pass targets the
# packages with concurrent hot paths.
#
#   ./scripts/check.sh          # gofmt + vet + build + tests + race pass + planbench
#   ./scripts/check.sh -lint    # additionally run pqolint + extra analyzers
#   ./scripts/check.sh -bench   # additionally diff pqobench against its golden
#                               # output and run the same-run benchmark gates
#   ./scripts/check.sh -chaos   # additionally run the full chaos profiles
#                               # and fuzz smokes of the /v1/plan decoder
#                               # (20 s), response encoder (10 s),
#                               # snapshot import (10 s) and histogram
#                               # build (20 s)
#
# The short chaos profile (fault-injected serving, docs/ROBUSTNESS.md) is
# part of the default test suite; -chaos runs the long streams.
set -eu
cd "$(dirname "$0")/.."

# Formatting: every tracked Go file outside vendor/, planbench's included,
# must be gofmt-clean.
unformatted=$(git ls-files -- '*.go' ':(exclude)vendor/**' ':(exclude)**/vendor/**' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "check.sh: FAIL gofmt -l lists:"
    echo "$unformatted"
    exit 1
fi
go vet ./...
go build ./...
# -shuffle=on randomizes test (and subtest) execution order, so hidden
# inter-test state dependencies fail loudly instead of by luck of the
# default order.
go test -shuffle=on ./...
go test -race ./internal/core/ ./internal/server/ ./internal/engine/ \
    ./internal/baselines/ ./internal/harness/ ./internal/memo/ \
    ./internal/faultinject/ ./internal/cluster/ ./internal/stats/
# planbench is its own module (it replaces repro with this tree), so
# ./... above does not reach it. Its self-tests include the λ oracle's
# (e.g. TestChurnOracleSeesStalePlans), which gate any change to epoch
# semantics.
(cd planbench && go test ./...)

run_lint() {
    # pqolint: the repo's invariant analyzers (docs/LINT.md). Driven through
    # `go vet -vettool` so package loading and result caching come from the
    # go command.
    bin=$(mktemp -d)/pqolint
    go build -o "$bin" ./cmd/pqolint
    go vet -vettool="$bin" ./...
    # Audit the //lint:allow inventory: an allow naming an unknown analyzer
    # (typo or stale after a rename) or missing its reason fails here.
    "$bin" -allows >/dev/null
    rm -f "$bin"
    echo "check.sh: pqolint clean"

    # Extra analyzers, best-effort: these tools are not vendored, so they
    # run only where the host has them installed (e.g. CI).
    if command -v govulncheck >/dev/null 2>&1; then
        govulncheck ./... || exit 1
    else
        echo "check.sh: govulncheck not installed; skipping"
    fi
    if command -v shadow >/dev/null 2>&1; then
        go vet -vettool="$(command -v shadow)" ./... || exit 1
    else
        echo "check.sh: shadow not installed; skipping"
    fi
}

case "${1:-}" in
-lint)
    run_lint
    ;;
-bench)
    # The reproduction's output, wall-clock fields masked, must match the
    # golden file byte for byte: a changed decision, count or ratio in
    # any figure or table of `pqobench -experiment all` fails here.
    GOLDEN=internal/experiments/testdata/pqobench-all.golden
    if ! ./scripts/pqobench-golden.sh | diff -u "$GOLDEN" -; then
        echo "check.sh: FAIL pqobench output differs from $GOLDEN; if the change is intended, refresh it with"
        echo "    ./scripts/pqobench-golden.sh > $GOLDEN"
        exit 1
    fi
    echo "check.sh: pqobench output matches $GOLDEN"
    # Fast smoke over the memo hot path: a regression in Optimize/
    # Recost cost or allocations shows up here in seconds (docs/PERF.md).
    go test ./internal/memo/ -run '^$' -benchtime 100x -benchmem \
        -bench 'BenchmarkOptimize$|BenchmarkRecost$'
    # A cost check's recosts through the engine: one PrepareRecost plus 8
    # cached plans (PERF.md "Recost without a result cache"). Report only.
    go test ./internal/engine/ -run '^$' -benchmem -bench 'BenchmarkPreparedRecost$'
    # The read path at 64, 512 and 4,096 cached instances, and a miss
    # through Optimize, manageCache and the snapshot flush (PERF.md "Miss
    # path"). Report only.
    go test ./internal/core/ -run '^$' -benchmem -bench 'BenchmarkCostCheck/|BenchmarkMissPath$'
    # Table 3's decision stream on fresh SCRs, no plan executions: ns per
    # SCR miss and hit, per OptAlways Optimize, and scr_over_optalways,
    # the ratio TestTab3Execution bounds by 2 (PERF.md "Miss path").
    # Report only.
    go test ./internal/experiments/ -run '^$' -bench 'BenchmarkTab3Decisions$' -count 3
    # The /v1/plan handler in process: decode, checks, encode (PERF.md
    # "The /v1/plan handler"); TestPlanHandlerAllocBudget pins its allocs.
    go test ./internal/server/ -run '^$' -benchmem -bench 'BenchmarkPlanHandler$'
    go test ./internal/server/ -run '^$' -bench BenchmarkServerParallel -cpu 8
    # Statistics administration with 31 templates registered: one drained
    # delta advance, and one /v1/metrics scrape (PERF.md "Memory per
    # statistics advance"). Report only.
    go test ./internal/server/ -run '^$' -benchmem \
        -bench 'BenchmarkAdminAdvance$|BenchmarkMetricsScrape$'
    # Set-up: the four systems plus the 90-template suite, and the first
    # read of one column's histogram, where the sampling cost now lands,
    # for a column of each sampler distribution (PERF.md "Set-up:
    # statistics on demand", "Histograms by selection"). Report only.
    go test ./internal/suite/ -run '^$' -benchmem -bench 'BenchmarkNewSystems$'
    go test ./internal/stats/ -run '^$' -benchmem -bench 'BenchmarkColumnHistogram/'
    # The same build on the request path: the first Process after a
    # statistics resample on a template with a constant predicate, on a
    # new SCR (cold: it optimizes and builds the column's histogram) and
    # on one warmed before the resample. Report only.
    go test ./internal/core/ -run '^$' -benchmem -benchtime 200x \
        -bench 'BenchmarkFirstProcessAfterResample/'
    # A selectivity-check hit at 10, 1k and 100k cached instances (PERF.md
    # "Selectivity hit by cache size"). Report only.
    go test ./internal/core/ -run '^$' -benchmem -bench 'BenchmarkSelectivityHit/'
    # Set-up: n names in scattered order attached to an empty Directory,
    # and the 90 suite templates registered into a fresh Server (PERF.md
    # "Set-up: registration"). Report only.
    go test ./internal/core/ -run '^$' -benchmem -bench 'BenchmarkDirectoryAttach/'
    go test ./internal/server/ -run '^$' -benchmem -bench 'BenchmarkRegisterSuite$'
    # Every gate below compares two numbers taken in this run, so none
    # depends on the host's speed.
    HI=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
    [ "$HI" -lt 8 ] && HI=8
    OUT=$(mktemp)
    trap 'rm -f "$OUT"' EXIT
    # Read scaling: best-of-2 ns/op at -cpu 1 vs -cpu $HI must give
    # >= 1.25x throughput. A mutex held across Process flattens the curve
    # (a read lock does not; lockdiscipline rejects that statically). The
    # scaling does not need physical cores: the benchmark's simulated
    # optimizer sleeps overlap on one CPU too.
    go test ./internal/core/ -run '^$' -bench 'BenchmarkProcessParallel$' \
        -cpu "1,$HI" -benchtime 1000x -count 2 | tee "$OUT"
    awk -v hi="$HI" '
    $1 ~ /^BenchmarkProcessParallel(-[0-9]+)?$/ && $4 == "ns/op" {
        # go test omits the -N GOMAXPROCS suffix when N == 1.
        n = $1
        if (sub(/^.*-/, "", n) == 0) n = "1"
        if (!(n in ns) || $3 + 0 < ns[n]) ns[n] = $3 + 0
    }
    END {
        if (!("1" in ns) || !(hi in ns)) { print "check.sh: missing ProcessParallel samples"; exit 1 }
        ratio = ns["1"] / ns[hi]
        printf "check.sh: ProcessParallel %d ns/op @1 proc, %d ns/op @%d procs (%.2fx)\n", ns["1"], ns[hi], hi, ratio
        if (ratio < 1.25) { print "check.sh: FAIL read path stopped scaling (< 1.25x)"; exit 1 }
    }' "$OUT"
    # Revalidation: with background epoch revalidation running, Process
    # p99 must stay within 2x of steady state, and no larger share of
    # calls may reach the optimizer (docs/STATS.md: a statistics refresh
    # must never be a self-inflicted cold start).
    go test ./internal/core/ -run '^$' -bench BenchmarkProcessDuringRevalidation \
        -cpu 8 -benchtime 0.5s | tee "$OUT"
    awk '
    $1 ~ /^BenchmarkProcessDuringRevalidation\// {
        v = ($1 ~ /revalidating/) ? "reval" : "steady"
        for (i = 3; i <= NF; i++) {
            if ($i == "p99-ns") p99[v] = $(i-1) + 0
            if ($i == "opt-pct") opt[v] = $(i-1) + 0
        }
    }
    END {
        if (!p99["steady"] || !p99["reval"] || !("steady" in opt) || !("reval" in opt)) {
            print "check.sh: missing revalidation samples"; exit 1
        }
        printf "check.sh: Process p99 %d ns steady, %d ns revalidating (limit %d)\n", p99["steady"], p99["reval"], 2 * p99["steady"]
        printf "check.sh: optimizer share %.4f%% steady, %.4f%% revalidating\n", opt["steady"], opt["reval"]
        fail = 0
        if (p99["reval"] > 2 * p99["steady"]) { print "check.sh: FAIL revalidation pushes p99 beyond 2x steady"; fail = 1 }
        if (opt["reval"] > opt["steady"]) { print "check.sh: FAIL revalidation sends more traffic to the optimizer"; fail = 1 }
        exit fail
    }' "$OUT"
    ;;
-chaos)
    # Full chaos streams: long fault-injected request replays under the
    # race detector (the short profile already runs in the default suite).
    # TestChaos matches both the single-node serving chaos and the
    # network-fault cluster profile (TestChaosCluster): a three-node
    # in-process cluster driven through epoch advances under dropped,
    # delayed, duplicated, and partitioned coordinator RPCs.
    go test -race ./internal/server/ -run 'TestChaos' -chaos.full \
        -count=1 -timeout 600s -v
    # Fuzz smoke of the /v1/plan request decoder, the server's trust
    # boundary: no panic, and agreement with encoding/json on everything
    # it accepts.
    go test -run '^$' -fuzz '^FuzzDecodePlanRequest$' -fuzztime 20s ./internal/server/
    # Fuzz smoke of the /v1/plan response encoder: byte-identical to
    # encoding/json on every generated response.
    go test -run '^$' -fuzz '^FuzzAppendPlanResponse$' -fuzztime 10s ./internal/server/
    # Fuzz smoke of SCR.Import, the trust boundary a snapshot file crosses
    # on restart: no panic, a rejected snapshot leaves the cache empty, an
    # accepted one serves valid instances and re-exports a fixed point.
    go test -run '^$' -fuzz '^FuzzImport$' -fuzztime 10s ./internal/core/
    # Fuzz smoke of the histogram build by selection: bit for bit the
    # sort-based build's histogram, or the same rejection, for any sample
    # and bucket count.
    go test -run '^$' -fuzz '^FuzzHistogram$' -fuzztime 20s ./internal/stats/
    ;;
esac

echo "check.sh: all green"
