#!/bin/sh
# Prints the repository benchmark's sim_fingerprint for every workload at
# seeds 1 and 2, one "workload seed fingerprint" line each, from a short
# run of each. scripts/check.sh compares the output with
# scripts/bench_fingerprints.golden: a behaviour-preserving change leaves
# every line unchanged. After an intended change, regenerate the golden
# with:
#
#	sh scripts/bench_fingerprints.sh > scripts/bench_fingerprints.golden
#
# bench/bench.sh builds into $CARGO_TARGET_DIR (default .bench_build).
set -eu
cd "$(dirname "$0")/.."

bash bench/bench.sh
for w in kv-twitter rack-ycsb rpc-fanout rpc-chain; do
	for s in 1 2; do
		out=$(bash bench/bench.sh --workload "$w" --seed "$s" --seconds 0.01 --trace 0 2>/dev/null) || {
			echo "bench_fingerprints.sh: $w seed $s: a benchmark check failed" >&2
			exit 1
		}
		fp=$(echo "$out" | sed -n 's/.*"sim_fingerprint":"\([0-9a-f]*\)".*/\1/p')
		echo "$w $s $fp"
	done
done
