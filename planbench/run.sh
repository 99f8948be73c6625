#!/usr/bin/env bash
# Builds the plan-service benchmark from source and runs it. Run from the
# repository root:
#
#   bash planbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the run artifacts stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/planbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "planbench: run from the repository root (needs go.mod and planbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/planbench" && go build -o "$out/bin/planbench" .)
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/bin/planbench" --commit "$commit" --out "$out/planbench" "$@"
