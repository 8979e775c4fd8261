package driver

import (
	"cornflakes/internal/workloads"
)

// Multi-core KV server: the paper's §6.6 shows the copy/scatter-gather
// microbenchmark scaling linearly across cores and argues "our end-to-end
// results should extrapolate to multiple cores", but leaves "a full
// multicore implementation to future work". This file is that future work:
// K cores with private L1/L2 over a shared L3, per-core stores sharded by
// key, per-core arenas/meters/allocators and UDP stacks, all behind one NIC
// port whose receive-side scaling (Rack.Cores) steers each frame to its
// core's stack.
//
// Clients address the owning core in the packet header (the key's shard,
// standing in for the NIC's RSS hash); responses flow out of each core's
// own transmit path onto the shared port, so wire and DMA contention are
// shared while CPU work is fully parallel.

// MultiKVServer runs one KVServer per core behind a shared port.
type MultiKVServer struct {
	Cores []*KVServer
}

// NewMultiKVServer runs nCores servers on the testbed's server and its
// sibling cores (Rack.Cores): per-core node resources and stacks, and
// caches sharing one L3 (§6.6's topology).
func NewMultiKVServer(tb *Testbed, nCores int, sys System) *MultiKVServer {
	m := &MultiKVServer{}
	for _, n := range tb.Cores(tb.Server, nCores) {
		m.Cores = append(m.Cores, NewKVServer(n, sys))
	}
	return m
}

// Preload shards records across cores by the same hash the clients use.
func (m *MultiKVServer) Preload(recs []workloads.KV) {
	perCore := make([][]workloads.KV, len(m.Cores))
	for _, r := range recs {
		s := int(shardOf(r.Key, len(m.Cores)))
		perCore[s] = append(perCore[s], r)
	}
	for i, srv := range m.Cores {
		srv.Preload(perCore[i])
	}
}

// Utilization returns the mean core utilization.
func (m *MultiKVServer) Utilization() float64 {
	u := 0.0
	for _, srv := range m.Cores {
		u += srv.N.Core.Utilization()
	}
	return u / float64(len(m.Cores))
}

// Errors sums per-core error counters.
func (m *MultiKVServer) Errors() uint64 {
	e := uint64(0)
	for _, srv := range m.Cores {
		e += srv.Errors
	}
	return e
}

// shardOf maps a key to a core (FNV-1a, the stand-in for NIC RSS).
func shardOf(key []byte, nCores int) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return h % uint32(nCores)
}

// MultiKVClient wraps a KVClient with per-core addressing: building a
// request step aims the client's UDP stack at the core that owns the key,
// as ClusterKVClient aims it at a shard.
type MultiKVClient struct {
	Inner  *KVClient
	NCores int
}

// Steps implements loadgen.Client.
func (c *MultiKVClient) Steps(req workloads.Request) int { return c.Inner.Steps(req) }

// BuildStep implements loadgen.Client.
func (c *MultiKVClient) BuildStep(id uint64, req workloads.Request, step int) []byte {
	c.Inner.N.UDP.DstAddr = byte(shardOf(req.Keys[0], c.NCores))
	return c.Inner.BuildStep(id, req, step)
}

// ResponseID implements loadgen.Client.
func (c *MultiKVClient) ResponseID(p []byte) (uint64, error) { return c.Inner.ResponseID(p) }
