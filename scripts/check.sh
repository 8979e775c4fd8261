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

echo "== one codec per system (library codecs and Cornflakes forks only in driver.System, no msgs codec under internal/)"
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
# The generated msgs API is a second Cornflakes codec: code under internal/
# builds and decodes every message through driver.Msg instead. The examples
# show the generated API on purpose.
msgs_calls=$(git ls-files 'internal/*.go' | grep -v -e '_test\.go$' -e '^internal/msgs/' |
	xargs grep -l -E 'msgs\.(New|Deserialize)' || true)
if [ -n "$msgs_calls" ]; then
	echo "generated msgs constructors or decoders called under internal/ (use driver.Msg):"
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

echo "== one request queue, one Cornflakes TX writer, one shed sender"
# Every simulated server parks its requests in a sim.Queue, whose drain is
# the one submission to a core, so the poll loop and admission path exist
# once; core.Message.WriteFront is the one place a stack walks a
# Cornflakes object's copied fields; and driver.Node.SendShed is the one
# sender of shed replies.
submits=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/sim/' |
	xargs grep -l '\.Submit(' || true)
if [ -n "$submits" ]; then
	echo "core work submitted outside internal/sim (queue requests in a sim.Queue):"
	echo "$submits"
	exit 1
fi
copy_walks=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/core/' |
	xargs grep -l 'IterateCopyEntries(' || true)
if [ -n "$copy_walks" ]; then
	echo "Cornflakes copied fields walked outside internal/core (use Message.WriteFront):"
	echo "$copy_walks"
	exit 1
fi
shed_builds=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/driver/' |
	xargs grep -l 'ShedReply(' || true)
if [ -n "$shed_builds" ]; then
	echo "shed reply built outside internal/driver (use Node.SendShed):"
	echo "$shed_builds"
	exit 1
fi

echo "== one reply datapath (rpc hops send through driver.System.Send)"
# An RPC hop sends its calls and replies as a KV server sends a reply:
# through driver.System.Send, each library's own datapath. A non-test file
# under internal/rpc that copies a built frame into the stack, or hashes a
# buffer's content into a send address, has forked a second datapath.
rpc_sends=$(git ls-files 'internal/rpc/*.go' | grep -v '_test\.go$' |
	xargs grep -l -e 'SendContiguous(' -e 'UnpinnedSimAddr(' || true)
if [ -n "$rpc_sends" ]; then
	echo "rpc frame sent outside driver.System.Send:"
	echo "$rpc_sends"
	exit 1
fi

echo "== unmetered load generators (no client hashes a payload into a send address)"
# Every builder makes its load-generator nodes unmetered (driver's
# unmetered, Rack.AddClient): their meter models no cache, so a send
# address computed for a client's payload is never read. A non-test file
# under internal/loadgen, or the soak's client in
# internal/experiments/soak.go, that hashes a payload's content into one
# spends host time on every request for nothing.
lg_hashes=$({
	git ls-files 'internal/loadgen/*.go' | grep -v '_test\.go$'
	git ls-files internal/experiments/soak.go
} | xargs grep -l 'UnpinnedSimAddr(' || true)
if [ -n "$lg_hashes" ]; then
	echo "payload hashed into a client's send address (client nodes are unmetered):"
	echo "$lg_hashes"
	exit 1
fi

echo "== one way into a server (frames reach a server only through its node's stack)"
# A node receives through its stack's onFrame, or through the receive-side
# scaling Rack.Cores installs (netstack.Steer) when sibling cores share a
# port. A non-test file outside nic, netstack and fabric that installs a
# port handler has opened a side door past the stack's RX billing,
# counters, drops and crash state. The §2.4 microbenchmark is the one
# exception, for its RX billing: its core pays RX when it takes a request,
# as a poll-mode driver does, so a frame its full ring refuses costs
# nothing, while a stack bills every frame on arrival; maxTput probes past
# the knee, where billing refused frames flattens Fig 3's raw-SG column.
port_handlers=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/nic/' -e '^internal/netstack/' \
	-e '^internal/fabric/' -e '^internal/experiments/micro\.go$' |
	xargs grep -l '\.SetHandler(' || true)
if [ -n "$port_handlers" ]; then
	echo "port handler installed outside nic, netstack and fabric (receive through the node's stack):"
	echo "$port_handlers"
	exit 1
fi

echo "== one TX builder (gather lists built only in nic, netstack and fabric)"
# A stack's send paths are the one place a gather list is built and its
# completion billed (serialize-and-send, §3.2.3), the one place a sent
# frame is counted (TxPackets, TxZCEntries, TxNoMem), and the one place
# that decides which frames share a doorbell (UDP's TX batch). A non-test
# file outside nic, netstack and fabric that names nic.SGEntry or posts a
# frame behind a doorbell has built a frame past the stack.
tx_builders=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^internal/nic/' -e '^internal/netstack/' \
	-e '^internal/fabric/' | xargs grep -l -e 'nic\.SGEntry' -e '\.SendBehind(' || true)
if [ -n "$tx_builders" ]; then
	echo "gather list built outside nic, netstack and fabric (send through the node's stack):"
	echo "$tx_builders"
	exit 1
fi

echo "== one KV shard router (a KV client reaches its shard only through ClusterKVClient)"
# A KV client addresses a shard, a switched node or a sibling core, by
# setting its stack's DstAddr; ClusterKVClient does it from the one
# placement ring (loadgen.Ring) ClusterTestbed.Preload also places keys by.
# Any other non-test file under internal/driver that sets DstAddr, apart
# from the KV server's reply path, has forked a second placement.
shard_routers=$(git ls-files 'internal/driver/*.go' | grep -v -e '_test\.go$' -e '^internal/driver/cluster\.go$' \
	-e '^internal/driver/kvserver\.go$' | xargs grep -l -E '\.DstAddr[[:space:]]*=([^=]|$)' || true)
if [ -n "$shard_routers" ]; then
	echo "stack DstAddr set in internal/driver outside cluster.go and kvserver.go (route through ClusterKVClient):"
	echo "$shard_routers"
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

echo "== frozen benchmark (bench/: vet, tests, and every workload's sim fingerprint at seeds 1 and 2)"
# bench/ is a module of its own, so the root go vet and go test skip it.
(cd bench && go vet ./... && go test ./...)
fps=$(sh scripts/bench_fingerprints.sh)
if [ "$fps" != "$(cat scripts/bench_fingerprints.golden)" ]; then
	echo "bench sim_fingerprints differ from scripts/bench_fingerprints.golden (regenerate it only for an intended change; see scripts/bench_fingerprints.sh):"
	echo "$fps" | diff scripts/bench_fingerprints.golden - || true
	exit 1
fi

echo "== zero-alloc hot-path pins (DES engine, queue serve, meter, cache fill, frame path, range walk, message pool, switch forward, serialize-and-send, TCP send/ack, request lifecycle)"
go test ./internal/sim ./internal/costmodel ./internal/nic ./internal/cachesim ./internal/core ./internal/fabric ./internal/netstack ./internal/loadgen -run 'AllocFree|TestTimerStaleAfterRecycle'

echo "== go test -race ./... (includes the parallel sweep smoke)"
# The experiments package runs every reproduction at Quick scale; under the
# race detector that outgrew go test's default 10-minute per-package limit.
go test -race -timeout 45m ./...

echo "== check OK"
