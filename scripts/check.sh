#!/bin/sh
# Full pre-merge gate: vet, build everything, then the test suite under the
# race detector (the fault-injection soak included). Use `go test -short`
# directly for a quicker loop that skips the soak.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l (tracked Go files)"
# Listing tracked files keeps build output such as .bench_build/ out.
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "not gofmt-clean:"
	echo "$unformatted"
	exit 1
fi

echo "== one codec per system (library codecs and Cornflakes forks only in driver.System, no msgs codec in driver)"
# The per-library wire decisions live in internal/driver/codec.go; any other
# non-test file that calls a baseline codec has copied one back out, and any
# other non-test file under internal/ that compares against SysCornflakes
# has forked a request or reply into a Cornflakes twin and a baseline twin.
codec_calls=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/baselines/' -e '^internal/driver/codec\.go$' |
	xargs grep -l -e 'baselines\.Proto' -e 'baselines\.FB' -e 'baselines\.Capnp' || true)
if [ -n "$codec_calls" ]; then
	echo "library codec called outside internal/driver/codec.go:"
	echo "$codec_calls"
	exit 1
fi
cf_forks=$(git ls-files 'internal/*.go' | grep -v -e '_test\.go$' -e '^internal/driver/codec\.go$' |
	xargs grep -l -E -e '(==|!=)[[:space:]]*(driver\.)?SysCornflakes\b' \
		-e '\bSysCornflakes[[:space:]]*(==|!=)' -e '\bcase\b.*\bSysCornflakes\b' || true)
if [ -n "$cf_forks" ]; then
	echo "SysCornflakes compared outside internal/driver/codec.go:"
	echo "$cf_forks"
	exit 1
fi
# The generated msgs API is a second Cornflakes codec: driver code builds and
# decodes every message through driver.Msg instead.
msgs_calls=$(git ls-files 'internal/driver/*.go' | grep -v '_test\.go$' |
	xargs grep -l -E 'msgs\.(New|Deserialize)' || true)
if [ -n "$msgs_calls" ]; then
	echo "generated msgs constructors or decoders called in internal/driver (use driver.Msg):"
	echo "$msgs_calls"
	exit 1
fi

echo "== one topology builder (links and node stacks only in driver.Rack and fabric)"
# driver.Rack builds every node and direct link and the fabric builds switch
# links; any other non-test file that links ports or attaches a stack has
# hand-wired a topology. The examples show the raw substrate on purpose.
topo_calls=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/driver/' -e '^internal/fabric/' -e '^examples/' |
	xargs grep -l -e 'nic\.Link(' -e 'netstack\.NewUDP(' -e 'netstack\.NewTCPConn(' || true)
if [ -n "$topo_calls" ]; then
	echo "topology hand-wired outside internal/driver/ and internal/fabric/:"
	echo "$topo_calls"
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== golden trace export (byte-stable Chrome trace JSON)"
go test ./internal/experiments -run 'TestTraceGoldenExport|TestTraceProperties'

echo "== batching determinism gate (burst cap 1 bit-identical to unbatched) + smoke"
go test -short ./internal/experiments -run 'TestBatchingGoldenAtB1|TestBatchingSmoke'

echo "== cluster fabric smoke (2-shard rack end to end through the ToR switch)"
go test -short ./internal/experiments -run 'TestClusterSmoke'
go test -short ./internal/driver -run 'TestClusterEndToEnd|TestClusterWireIDsDisjoint|TestClusterTopologyGrowthStable'

echo "== chaos smoke (kill-one-shard point: crash/recovery, failover, frame ledger)"
go test -short ./internal/experiments -run 'TestChaosSmoke|TestChaosDeterministic'
go test -short ./internal/driver -run 'TestClusterCrashRecovery|TestCrashDrainsPending|TestFailoverRouting'
go test -short ./internal/loadgen -run 'TestHedge|TestBucketCompleted'

echo "== rpc chain smoke (call/reply framing, fan-in, shed propagation, NIC offload)"
go test -short ./internal/rpc -run 'TestSingleHopAllSystems|TestShedPropagatesUpstream|TestFanInLateReplyProperty|TestOffloadMovesSerializationOffHost'

echo "== parallel-harness fingerprint gate (serial == parallel across every experiment, rpc included)"
go test ./internal/experiments -run 'TestSerialParallelFingerprints|TestFingerprintSensitivity'

echo "== zero-alloc hot-path pins (DES engine, core, meter, cache fill, frame path, range walk, message pool, switch forward, serialize-and-send)"
go test ./internal/sim ./internal/costmodel ./internal/nic ./internal/cachesim ./internal/core ./internal/fabric ./internal/netstack -run 'AllocFree|TestTimerStaleAfterRecycle'

echo "== go test -race ./... (includes the parallel sweep smoke)"
# The experiments package runs every reproduction at Quick scale; under the
# race detector that outgrew go test's default 10-minute per-package limit.
go test -race -timeout 45m ./...

echo "== check OK"
