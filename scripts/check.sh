#!/bin/sh
# Full pre-merge gate: vet, build everything, then the test suite under the
# race detector (the fault-injection soak included). Use `go test -short`
# directly for a quicker loop that skips the soak.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

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

echo "== zero-alloc hot-path pins (DES engine, core, meter, cache fill, frame path, range walk, message pool)"
go test ./internal/sim ./internal/costmodel ./internal/nic ./internal/cachesim ./internal/core -run 'AllocFree|TestTimerStaleAfterRecycle'

echo "== go test -race ./... (includes the parallel sweep smoke)"
# The experiments package runs every reproduction at Quick scale; under the
# race detector that outgrew go test's default 10-minute per-package limit.
go test -race -timeout 45m ./...

echo "== check OK"
