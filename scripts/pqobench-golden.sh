#!/bin/sh
# Prints the output of the reproduction run
#
#   go run ./cmd/pqobench -experiment all -templates 24 -m 300
#
# with its wall-clock fields masked: the "ready in" and "done in"
# durations and Table 3's opt time, exec time and total columns. The rest
# is deterministic (the same on every run and under GOMAXPROCS=1), so
# `check.sh -bench` diffs it against the golden file. Refresh the golden
# after an intended change of the output with
#
#   ./scripts/pqobench-golden.sh > internal/experiments/testdata/pqobench-all.golden
set -eu
cd "$(dirname "$0")/.."
out=$(go run ./cmd/pqobench -experiment all -templates 24 -m 300)
printf '%s\n' "$out" | awk '
/^ready in / || /^done in / { $3 = "*" }
/^== Table 3:/ { table3 = 1; print; next }
table3 && NF == 0 { table3 = 0 }
table3 && $1 != "technique" { $2 = $3 = $4 = "*" }
{ print }'
