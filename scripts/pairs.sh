#!/usr/bin/env bash
# Paired A/B runs of planbench: the working tree against a git revision.
#
#   scripts/pairs.sh <rev> <workload> <pairs> [seed]
#
# Run from the repository root. It builds planbench twice with the offline
# environment planbench/run.sh uses (GOPROXY=off, GOFLAGS=-buildvcs=false):
# "change" from the working tree, "base" from <rev>, extracted with
# `git archive` under $TMPDIR (removed again once built). It then runs the
# two binaries alternately for <pairs> pairs of BENCHMARK.json's
# run_seconds each, base first in odd pairs and change first in even ones,
# every run under GODEBUG=gctrace=1, and prints:
#
#   - for each end-to-end metric of BENCHMARK.json, each side's median and
#     interquartile range, the change of the medians, in how many pairs
#     the change was strictly better (by the metric's direction), and a
#     verdict against the metric's BENCHMARK.json bound (a fraction of the
#     base median):
#       worse       the change's median is worse than the base median by
#                   more than the bound;
#       unresolved  not worse, but the base IQR exceeds the bound and not
#                   every change run beats every base run, so the spread
#                   is too wide to tell;
#       ok          otherwise;
#   - garbage collections per 1k requests: the run's gctrace lines over
#     attempted/1000 (set-up collections included; no bound, no verdict);
#   - failed requests and the oracle's verdict, summed over the runs.
#
# The table is also written to summary.txt in the printed run directory,
# beside the per-run JSON lines and standard error (gctrace included). The
# script exits 1 when any metric's verdict is worse. Needs git, go and jq.
# A pair takes about twice run_seconds plus set-up, so 10 pairs take
# minutes; check.sh does not run this script.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
	echo "usage: scripts/pairs.sh <rev> <workload> <pairs> [seed]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=${4:-1}
root=$(pwd)
if [[ ! -f "$root/planbench/go.mod" || ! -f "$root/BENCHMARK.json" ]]; then
	echo "pairs: run from the repository root (needs planbench/go.mod and BENCHMARK.json)" >&2
	exit 2
fi
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
	echo "pairs: <pairs> must be a positive integer" >&2
	exit 2
fi
command -v jq >/dev/null || { echo "pairs: needs jq" >&2; exit 2; }
base_commit=$(git rev-parse --short "$rev^{commit}")
seconds=$(jq -r '.run_seconds' "$root/BENCHMARK.json")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
basesrc="$tmp/base-src"
cleanup() { rm -rf "$basesrc"; }
trap cleanup EXIT

mkdir -p "$root/.bench_build" "$tmp/gotmp" "$tmp/config" "$tmp/bin" "$tmp/runs"
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$tmp/gotmp" XDG_CONFIG_HOME="$tmp/config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

mkdir -p "$basesrc"
git -C "$root" archive "$base_commit" | tar -x -C "$basesrc"
echo "pairs: building base ($base_commit) and change (working tree)" >&2
(cd "$basesrc/planbench" && go build -o "$tmp/bin/base" .)
(cd "$root/planbench" && go build -o "$tmp/bin/change" .)
cleanup

values="$tmp/values.tsv"
: >"$values"

# run <side> <pair> appends "side pair metric value" rows for one run.
run() {
	local side=$1 i=$2 log="$tmp/runs/$1-$2" gcs
	if ! GODEBUG=gctrace=1 "$tmp/bin/$side" --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --out "$log.out" --commit "$side" >"$log.json" 2>"$log.err"; then
		echo "pairs: $side run of pair $i failed; see $log.err" >&2
		exit 1
	fi
	gcs=$(grep -c '^gc [0-9]* @' "$log.err" || true)
	tail -n 1 "$log.json" | jq -r --arg side "$side" --arg i "$i" --argjson gcs "$gcs" '
		(.metrics | to_entries[] | [$side, $i, .key, .value.value]),
		[$side, $i, "gc_per_1k", (if .attempted > 0 then $gcs * 1000 / .attempted else 0 end)],
		[$side, $i, "failed", .failed],
		[$side, $i, "incorrect", (if .correct then 0 else 1 end)]
		| @tsv' >>"$values"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then order="base change"; else order="change base"; fi
	for side in $order; do
		run "$side" "$i"
	done
	echo "pairs: $i/$pairs done" >&2
done

summary="$tmp/runs/summary.txt"
{
	echo "planbench $workload, seed $seed, $seconds s runs, $pairs pairs: base $base_commit vs change (working tree)"
	echo "runs: $tmp/runs"
} >"$summary"
status=0
{
	jq -r '.end_to_end[] | ["dir", .name, .better, .bound] | @tsv' "$root/BENCHMARK.json"
	printf 'dir\tgc_per_1k\tlower\t\n'
	cat "$values"
} | awk -F '\t' -v pairs="$pairs" '
# sorted copy of a[1..n] into s, by insertion.
function sortn(a, n, s,    i, j, v) {
	for (i = 1; i <= n; i++) {
		v = a[i]
		for (j = i - 1; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]
		s[j + 1] = v
	}
}
# q returns the p-quantile of sorted s[1..n], linearly interpolated.
function q(s, n, p,    h, lo) {
	h = (n - 1) * p + 1
	lo = int(h)
	if (lo >= n) return s[n]
	return s[lo] + (h - lo) * (s[lo + 1] - s[lo])
}
# worse(a, b, m) is how much worse a is than b for metric m, as a
# fraction of |b| (of 1 when b is 0); negative when a is better.
function worse(a, b, m,    d) {
	d = better[m] == "lower" ? a - b : b - a
	return d / (b != 0 ? (b < 0 ? -b : b) : 1)
}
$1 == "dir" { order[++nm] = $2; better[$2] = $3; bound[$2] = $4; next }
{ v[$1, $3, $2] = $4; seen[$1, $3]++; sum[$1, $3] += $4 }
END {
	printf "%-16s %12s %10s %12s %10s %9s %6s  %s\n", "metric", "base_med", "base_iqr", "change_med", "change_iqr", "delta", "wins", "verdict"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		if (seen["base", m] < pairs || seen["change", m] < pairs) continue
		wins = 0
		for (i = 1; i <= pairs; i++) {
			b[i] = v["base", m, i]; c[i] = v["change", m, i]
			if ((better[m] == "lower" && c[i] < b[i]) || (better[m] == "higher" && c[i] > b[i])) wins++
		}
		sortn(b, pairs, sb); sortn(c, pairs, sc)
		bm = q(sb, pairs, 0.5); cm = q(sc, pairs, 0.5)
		biqr = q(sb, pairs, 0.75) - q(sb, pairs, 0.25)
		delta = bm != 0 ? sprintf("%+.1f%%", 100 * (cm - bm) / bm) : "n/a"
		# Every change run beats every base run: the worst change run
		# beats the best base run.
		if (better[m] == "lower") { cw = sc[pairs]; bb = sb[1] } else { cw = sc[1]; bb = sb[pairs] }
		if (bound[m] == "") verdict = "-"
		else if (worse(cm, bm, m) > bound[m]) { verdict = "worse"; nworse++ }
		else if (biqr / (bm != 0 ? (bm < 0 ? -bm : bm) : 1) > bound[m] && worse(cw, bb, m) >= 0) verdict = "unresolved"
		else verdict = "ok"
		printf "%-16s %12.6g %10.4g %12.6g %10.4g %9s %3d/%d  %s\n", m, bm, biqr,
			cm, q(sc, pairs, 0.75) - q(sc, pairs, 0.25), delta, wins, pairs, verdict
	}
	printf "failed requests: base %d, change %d; incorrect runs: base %d, change %d\n",
		sum["base", "failed"], sum["change", "failed"], sum["base", "incorrect"], sum["change", "incorrect"]
	exit (nworse > 0)
}' >>"$summary" || status=$?
cat "$summary"
exit "$status"
