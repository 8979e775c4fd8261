package driver

import (
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/workloads"
)

// Multi-core KV server: the paper's §6.6 shows the copy/scatter-gather
// microbenchmark scaling linearly across cores and argues "our end-to-end
// results should extrapolate to multiple cores", but leaves "a full
// multicore implementation to future work". This file is that future work:
// K cores with private L1/L2 over a shared L3, per-core stores sharded by
// key, per-core arenas/meters/allocator-free-lists, all behind one NIC
// port with RSS-style dispatch.
//
// Requests carry a one-byte shard tag after the op byte (clients compute
// it from the key, standing in for NIC RSS hashing); responses flow out of
// each core's own transmit path onto the shared port, so wire and DMA
// contention are shared while CPU work is fully parallel.

// MultiKVServer runs one KVServer per core behind a shared port.
type MultiKVServer struct {
	Cores []*KVServer
}

// NewMultiKVServer runs nCores servers on the testbed's server and its
// sibling cores (Rack.Cores): per-core node resources, caches sharing one
// L3 (§6.6's topology), and the RSS dispatcher on the shared port.
func NewMultiKVServer(tb *Testbed, nCores int, sys System) *MultiKVServer {
	m := &MultiKVServer{}
	for _, n := range tb.Cores(tb.Server, nCores) {
		m.Cores = append(m.Cores, NewKVServer(n, sys))
	}
	tb.Server.Port.SetHandler(m.onFrame)
	return m
}

// onFrame is the RSS dispatcher: it reads the shard tag, places the
// payload in the owning core's pinned memory (the NIC steers DMA writes to
// per-core RX rings), and delivers it to that core's server.
func (m *MultiKVServer) onFrame(f *nic.Frame) {
	if len(f.Data) <= netstack.PacketHeaderLen+2 {
		return
	}
	payload := f.Data[netstack.PacketHeaderLen:]
	shard := int(payload[0]) % len(m.Cores)
	srv := m.Cores[shard]
	srv.N.Meter.Charge(srv.N.Meter.CPU.RxPacketCy)
	buf := srv.N.Alloc.Alloc(len(payload) - 1)
	copy(buf.Bytes(), payload[1:]) // DMA write into the core's RX buffer
	srv.Deliver(buf)
}

// Preload shards records across cores by the same tag the clients use.
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

// MultiKVClient wraps a KVClient, prefixing the shard tag the dispatcher
// consumes.
type MultiKVClient struct {
	Inner  *KVClient
	NCores int
}

// Steps implements loadgen.Client.
func (c *MultiKVClient) Steps(req workloads.Request) int { return c.Inner.Steps(req) }

// BuildStep implements loadgen.Client: [op][shard][serialized request].
func (c *MultiKVClient) BuildStep(id uint64, req workloads.Request, step int) []byte {
	inner := c.Inner.BuildStep(id, req, step)
	out := make([]byte, 1, len(inner)+1)
	out[0] = inner[0] // op byte stays first for KVServer.handle
	out = append(out, byte(shardOf(req.Keys[0], c.NCores)))
	out = append(out, inner[1:]...)
	// Swap so the dispatcher sees [shard] first and strips it, leaving
	// [op][request] for the server.
	out[0], out[1] = out[1], out[0]
	return out
}

// ResponseID implements loadgen.Client.
func (c *MultiKVClient) ResponseID(p []byte) (uint64, error) { return c.Inner.ResponseID(p) }
