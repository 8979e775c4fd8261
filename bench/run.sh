#!/usr/bin/env bash
# Runs every benchmark workload untraced and then traced, one process each,
# and writes artifacts/bench/<workload>{,.traced}.json plus the traced runs'
# span tables and CPU profiles. Each run prints its name/unit/value table on
# standard error. Run it from the repository root:
#
#   bash bench/run.sh            # seed 1, 20 s per run as in BENCHMARK.json
#   SEED=2 RUN_SECONDS=10 bash bench/run.sh
set -euo pipefail

seed=${SEED:-1}
seconds=${RUN_SECONDS:-20}
out=artifacts/bench

bash bench/bench.sh
bin=${CARGO_TARGET_DIR:-.bench_build}/cfbench
mkdir -p "$out"
for w in kv-twitter rack-ycsb rpc-fanout rpc-chain; do
	for trace in 0 1; do
		echo "== $w trace=$trace" >&2
		"$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" >/dev/null
	done
done
