#!/bin/sh
# Interleaved A/B runs of the repository benchmark: the working tree (the
# change) against a parent revision, on every workload BENCHMARK.json lists,
# folded into one summary by cmd/abfold. Run it from anywhere in the
# repository:
#
#	sh scripts/ab.sh <parent-rev> [pairs] [seed]
#
# The parent is exported with git archive into a new directory under
# ${TMPDIR:-/tmp}, which leaves the repository's git state untouched. Both
# trees build through bench/bench.sh, each into its own CARGO_TARGET_DIR
# there. Each workload then runs `pairs` (default 5) pairs of runs at
# BENCHMARK.json's run_seconds on `seed` (default 1), the parent first in
# odd pairs and the change first in even ones, and keeps each run's two
# JSON lines in <dir>/runs/<workload>.<side>.<pair>.json. It writes nothing
# under bench/ and no BENCH_*.json: the printed summary is the result, and
# abfold writes the same fold as JSON to <dir>/fold.json. The exit status
# is abfold's: 1 when a metric is outside its bound, a sim_fingerprint
# differs or a run's checks failed.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
	echo "usage: sh scripts/ab.sh <parent-rev> [pairs] [seed]" >&2
	exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
pairs=${2:-5}
seed=${3:-1}

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "ab.sh: parent $rev, $pairs pairs per workload on seed $seed, runs in $work" >&2
mkdir "$work/parent" "$work/runs"
git archive "$rev" | tar -x -C "$work/parent"
(cd "$work/parent" && CARGO_TARGET_DIR="$work/build-parent" bash bench/bench.sh)
CARGO_TARGET_DIR="$work/build-change" bash bench/bench.sh

# BENCHMARK.json is frozen, one workload object per line.
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json)

# run <side> <workload> <pair>: one benchmark run; its table goes to runs.log.
run() {
	"$work/build-$1/cfbench" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 \
		>"$work/runs/$2.$1.$3.json" 2>>"$work/runs.log" ||
		echo "ab.sh: $2 $1 pair $3: a benchmark check failed" >&2
}
for w in $workloads; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		echo "ab.sh: $w pair $i/$pairs" >&2
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$w" "$i"
			run change "$w" "$i"
		else
			run change "$w" "$i"
			run parent "$w" "$i"
		fi
		i=$((i + 1))
	done
done
go run ./cmd/abfold BENCHMARK.json "$work/runs" "$work/fold.json"
