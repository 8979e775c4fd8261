package rpc

import (
	"strconv"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/fabric"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/trace"
)

// ChainConfig describes a service-chain topology: a client calling a
// linear chain of Depth tiers, with the last tier optionally fanning out
// to Fanout leaf backends. The shape models the client → frontend →
// backends call graphs of datacenter microservices. The tiers sit behind a
// default fabric (fabric.Config{}).
type ChainConfig struct {
	Sys     driver.System
	Profile nic.Profile
	Cache   cachesim.Config

	// Depth is the number of chained tiers (≥ 1). Fanout adds that many
	// leaf backends under the deepest tier (0 = the deepest tier is the
	// leaf itself).
	Depth  int
	Fanout int

	// AppCycles is the per-tier application work; ReqBytes / FwdBytes /
	// RespBytes size the client call, inter-tier call, and reply payloads.
	AppCycles float64
	ReqBytes  int
	FwdBytes  int
	RespBytes int

	// CallTimeout is each tier's fan-in deadline (zero disables —
	// sensible only when the client's retry deadline bounds the wait).
	CallTimeout sim.Time

	// Offload gives every tier a NIC-side serialization engine: reply and
	// forward marshalling leaves the host cores.
	Offload bool

	// Tracer receives per-hop phase marks on all tiers.
	Tracer *trace.Tracer
}

// offloadDepth bounds each offload engine's queue of sends.
const offloadDepth = 1024

// Chain is a built topology: the rack, the tiers in hop order (chain tiers
// first, then the fan-out leaves), and the client.
type Chain struct {
	*driver.Rack
	Services []*Service // chain tiers then leaves, in hop order
	Leaves   []*Service // the fan-out subset of Services (if any)
	Client   *Client
}

// NewChain builds the call graph on a fresh Rack. Plug-in order — tiers,
// leaves, client — is part of the deterministic identity of a run, exactly
// like ClusterTestbed's servers-then-clients order.
func NewChain(cfg ChainConfig) *Chain {
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	c := &Chain{Rack: driver.NewRack(fabric.Config{})}

	mk := func(name string, hop int) *Service {
		n, addr := c.AddNode(cfg.Profile, cfg.Cache)
		s := NewService(n, cfg.Sys, name, hop, addr)
		s.CallTimeout = cfg.CallTimeout
		s.AppCycles = cfg.AppCycles
		s.Tracer = cfg.Tracer
		if cfg.FwdBytes > 0 {
			s.FwdBytes = cfg.FwdBytes
		}
		if cfg.RespBytes > 0 {
			s.RespBytes = cfg.RespBytes
		}
		c.Services = append(c.Services, s)
		return s
	}

	tiers := make([]*Service, cfg.Depth)
	for i := 0; i < cfg.Depth; i++ {
		tiers[i] = mk("t"+strconv.Itoa(i+1), i+1)
	}
	for i := 0; i < cfg.Depth-1; i++ {
		tiers[i].Backends = []byte{tiers[i+1].Addr}
	}
	for j := 0; j < cfg.Fanout; j++ {
		leaf := mk("leaf"+strconv.Itoa(j), cfg.Depth+1)
		c.Leaves = append(c.Leaves, leaf)
		tiers[cfg.Depth-1].Backends = append(tiers[cfg.Depth-1].Backends, leaf.Addr)
	}
	if cfg.Offload {
		for _, s := range c.Services {
			// The offload engine is part of the tier's NIC, so it runs on
			// the tier's engine.
			s.Offload = sim.NewQueue[offloadSend](sim.NewCore(s.N.Eng), offloadDepth, s.drainOffload)
		}
	}

	cn, _ := c.AddClient(cfg.Profile)
	c.Client = NewClient(cn, cfg.Sys, tiers[0].Addr)
	if cfg.ReqBytes > 0 {
		c.Client.ReqBytes = cfg.ReqBytes
	}
	return c
}

// HostReceipt sums the host-core receipts over every tier and the
// handled-call count; OffloadReceipt does the same for the NIC-side
// engines. Both feed the serialization-share and offload-benefit
// observables.
func (c *Chain) HostReceipt() (costmodel.Receipt, uint64) { return c.receipts(false) }

// OffloadReceipt sums the offload-engine receipts over every tier.
func (c *Chain) OffloadReceipt() (costmodel.Receipt, uint64) { return c.receipts(true) }

func (c *Chain) receipts(off bool) (costmodel.Receipt, uint64) {
	var rec costmodel.Receipt
	var n uint64
	for _, s := range c.Services {
		if off {
			rec.Add(s.OffRec)
		} else {
			rec.Add(s.HostRec)
		}
		n += s.Handled
	}
	return rec, n
}

// ChildLedgersExact verifies every tier's fan-out disposal invariant.
func (c *Chain) ChildLedgersExact() bool {
	for _, s := range c.Services {
		if !s.ChildLedgerExact() || s.PendingChildren() != 0 {
			return false
		}
	}
	return true
}
