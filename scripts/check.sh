#!/bin/sh
# Tier-1 verification: vet, build, run the full test suite, re-run the
# concurrency-sensitive packages under the race detector, and run
# planbench's own tests. The experiment reproduction tests are
# minutes-long already and ~10x slower under -race (they exceed go test's
# per-package timeout on small machines), so the race pass targets the
# packages with concurrent hot paths.
#
#   ./scripts/check.sh          # vet + build + tests + race pass + planbench
#   ./scripts/check.sh -lint    # additionally run pqolint + extra analyzers
#   ./scripts/check.sh -bench   # additionally run the parallel benchmarks
#   ./scripts/check.sh -chaos   # additionally run the full chaos profiles
#
# The short chaos profile (fault-injected serving, docs/ROBUSTNESS.md) is
# part of the default test suite; -chaos runs the long streams.
set -eu
cd "$(dirname "$0")/.."

go vet ./...
go build ./...
# -shuffle=on randomizes test (and subtest) execution order, so hidden
# inter-test state dependencies fail loudly instead of by luck of the
# default order.
go test -shuffle=on ./...
go test -race ./internal/core/ ./internal/server/ ./internal/engine/ \
    ./internal/baselines/ ./internal/harness/ ./internal/memo/ \
    ./internal/faultinject/ ./internal/cluster/
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
    # Fast smoke over the memo hot path first: a regression in Optimize/
    # Recost cost or allocations shows up here in seconds (see docs/PERF.md
    # and scripts/bench.sh for the full comparison workflow).
    go test ./internal/memo/ -run '^$' -benchtime 100x -benchmem \
        -bench 'BenchmarkOptimize$|BenchmarkRecost$'
    go test ./internal/server/ -run '^$' -bench BenchmarkServerParallel -cpu 8
    # Regression gates: ProcessParallel/rcu vs the frozen BENCH_PR7.json
    # sweep point and Process p99 during background epoch revalidation vs
    # steady state (>2x fails).
    ./scripts/bench_smoke.sh
    # Scaling smoke: the lock-free read path must still deliver >= 1.25x
    # single-proc throughput at max(8, NumCPU) procs; a lock reintroduced
    # on the hit path flattens the curve and fails here in seconds.
    ./scripts/bench_scaling.sh -smoke
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
    ;;
esac

echo "check.sh: all green"
