package driver

import (
	"cornflakes/internal/cachesim"
	"cornflakes/internal/fabric"
	"cornflakes/internal/faults"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/workloads"
)

// The chaos layer drives the topology through these interfaces; keep the
// implementations honest at compile time.
var (
	_ faults.FaultNode = (*KVServer)(nil)
	_ faults.PortAdmin = (*fabric.Switch)(nil)
)

// ClusterTestbed is the topology composer behind the cluster experiments:
// N sharded KV servers and M load-generator clients on one Rack, the shards
// switched nodes (NewClusterTestbed) or a server's cores (NewCoreShards). It
// generalizes Testbed's back-to-back pair to the rack the paper's
// "millions of users" deployments actually run in; the switch plumbing,
// node construction, and frame ledger live on the embedded Rack so other
// scenario families (RPC chains, cache tiers) compose the same way.
type ClusterTestbed struct {
	*Rack
	// Servers[i] is the KV shard reachable at ServerAddrs[i].
	Servers     []*KVServer
	ServerAddrs []byte
	// Clients[i] is a load-generator endpoint, unmetered (Rack.AddClient).
	Clients []*Node
	// Ring maps keys to server indexes; clients and Preload share it, so
	// routing and placement always agree.
	Ring *loadgen.Ring
}

// NewClusterTestbed builds the topology: nServers KV shards (with the
// given serialization system and cache config) and nClients generator
// endpoints behind one switch. A zero fabric.Config takes the defaults
// (100 Gbps ToR ports, 300 ns switching latency, 256-frame output queues).
// Servers plug in before clients, so shard fabric addresses stay 1..n.
func NewClusterTestbed(nServers, nClients int, sys System, profile nic.Profile, cacheCfg cachesim.Config, fcfg fabric.Config) *ClusterTestbed {
	c := &ClusterTestbed{
		Rack: NewRack(fcfg),
		Ring: loadgen.NewRing(nServers, 0),
	}
	for i := 0; i < nServers; i++ {
		n, addr := c.AddNode(profile, cacheCfg)
		c.Servers = append(c.Servers, NewKVServer(n, sys))
		c.ServerAddrs = append(c.ServerAddrs, addr)
	}
	for i := 0; i < nClients; i++ {
		n, _ := c.AddClient(profile)
		c.Clients = append(c.Clients, n)
	}
	return c
}

// NewCoreShards makes the testbed's server a k-core KV server (§6.6's
// future work): shard i runs on core i of tb.Cores(tb.Server, k) and is
// addressed by i, the byte the shared port's receive-side scaling steers
// on, so the testbed's client reaches a key's core as it would reach a
// switched shard.
func NewCoreShards(tb *Testbed, k int, sys System) *ClusterTestbed {
	c := &ClusterTestbed{Rack: tb.Rack, Clients: []*Node{tb.Client}, Ring: loadgen.NewRing(k, 0)}
	for i, n := range tb.Cores(tb.Server, k) {
		c.Servers = append(c.Servers, NewKVServer(n, sys))
		c.ServerAddrs = append(c.ServerAddrs, byte(i))
	}
	return c
}

// Preload partitions records across the shards by the ring, placing each
// record on its owner plus the next replicas-1 distinct shards clockwise
// (the same replica set ClusterKVClient's read spreading draws from).
// replicas ≤ 1 means primary-only placement.
func (c *ClusterTestbed) Preload(recs []workloads.KV, replicas int) {
	parts := make([][]workloads.KV, len(c.Servers))
	var scratch []int
	for _, rec := range recs {
		scratch = c.Ring.Replicas(scratch[:0], rec.Key, replicas)
		for _, s := range scratch {
			parts[s] = append(parts[s], rec)
		}
	}
	for i, srv := range c.Servers {
		srv.Preload(parts[i])
	}
}

// FaultNodes exposes the shards as the fault surface a
// faults.NodeFaultPlan drives: ScheduleNodePlan(eng, plan, tb.FaultNodes(),
// tb.Switch) arms a whole chaos scenario against this testbed.
func (c *ClusterTestbed) FaultNodes() []faults.FaultNode {
	nodes := make([]faults.FaultNode, len(c.Servers))
	for i, s := range c.Servers {
		nodes[i] = s
	}
	return nodes
}

// NewClient builds the consistent-hash-routed client for client index i.
// replicas ≥ 2 enables R-way read spreading: reads rotate across the key's
// replica set (writes always go to the owner), which both spreads hot-key
// load and gives retries a different replica to try.
func (c *ClusterTestbed) NewClient(i int, sys System, replicas int) *ClusterKVClient {
	return &ClusterKVClient{
		Inner:  NewKVClient(c.Clients[i], sys),
		udp:    c.Clients[i].UDP,
		ring:   c.Ring,
		addrs:  c.ServerAddrs,
		R:      replicas,
		Routed: make([]uint64, len(c.Servers)),
	}
}

// ClusterKVClient wraps a KVClient with consistent-hash routing: building
// a request step aims the client's UDP stack at the owning shard's
// address, a fabric port or a server core, so the frame the stack emits is
// addressed before it leaves.
type ClusterKVClient struct {
	Inner *KVClient
	udp   *netstack.UDP
	ring  *loadgen.Ring
	addrs []byte
	// R is the read-spread width: reads rotate over the key's R-replica
	// set. ≤ 1 routes everything to the owner.
	R int
	// Failover switches read routing from global round-robin spreading to
	// attempt-indexed replica selection: attempt k of a request goes to
	// replica (Ring.Rotation(key)+k) mod R, so a retry or hedge is
	// guaranteed a different replica than the attempt that failed —
	// timeouts rotate *away* from a dead or gray owner instead of
	// re-hitting it. Writes still always go to the owner.
	Failover bool
	// Routed counts steps routed to each server index.
	Routed []uint64

	attempt int
	spread  uint64
	scratch []int
}

// RouteAttempt implements loadgen.AttemptRouter: the generator announces
// the attempt index (0 = first try, +1 per retry or hedge) before each
// BuildStep, and failover routing folds it into the replica choice.
func (c *ClusterKVClient) RouteAttempt(attempt int) { c.attempt = attempt }

// Steps implements loadgen.Client.
func (c *ClusterKVClient) Steps(req workloads.Request) int { return c.Inner.Steps(req) }

// ResponseID implements loadgen.Client.
func (c *ClusterKVClient) ResponseID(p []byte) (uint64, error) { return c.Inner.ResponseID(p) }

// BuildStep routes the request and encodes it. Reads under R ≥ 2 rotate
// deterministically across the replica set, so a retry of a timed-out
// request can land on a different replica than the original attempt.
// Writes always hit the owner; spread replicas of a written key serve
// stale reads until re-placed (the read-spread sweeps are read-only).
func (c *ClusterKVClient) BuildStep(id uint64, req workloads.Request, step int) []byte {
	shard := 0
	if len(req.Keys) > 0 {
		r := c.R
		if r < 1 {
			r = 1
		}
		c.scratch = c.ring.Replicas(c.scratch[:0], req.Keys[0], r)
		pick := 0
		if len(c.scratch) > 1 && req.Op != workloads.OpPut {
			if c.Failover {
				// Attempt-indexed: all attempts of one request share the
				// key's rotation base, consecutive attempts land on distinct
				// replicas, and no cross-request counter is consumed — the
				// non-failover path below stays bit-identical when off.
				pick = int((c.ring.Rotation(req.Keys[0]) + uint64(c.attempt)) % uint64(len(c.scratch)))
			} else {
				pick = int(c.spread % uint64(len(c.scratch)))
				c.spread++
			}
		}
		shard = c.scratch[pick]
	}
	c.udp.DstAddr = c.addrs[shard]
	c.Routed[shard]++
	return c.Inner.BuildStep(id, req, step)
}
