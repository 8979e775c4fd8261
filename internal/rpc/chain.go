package rpc

import (
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
// to Fanout leaf backends, plus an optional one-way notification sink fed
// by the frontend. The shape models the client → frontend → backends call
// graphs of datacenter microservices.
type ChainConfig struct {
	Sys     driver.System
	Profile nic.Profile
	Cache   cachesim.Config
	Fabric  fabric.Config

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
	// ShedQueue arms per-tier admission control (zero disables).
	ShedQueue int

	// Offload gives every tier a NIC-side serialization engine: reply and
	// forward marshalling leaves the host cores.
	Offload bool
	// Notify makes the frontend emit a one-way completion event to a
	// dedicated sink node per reply.
	Notify bool

	// Tracer receives per-hop phase marks on all tiers.
	Tracer *trace.Tracer
}

// Chain is a built topology: the rack, the tiers in hop order (chain tiers
// first, then the fan-out leaves), the optional sink, and the client.
type Chain struct {
	*driver.Rack
	Services []*Service // chain tiers then leaves, in hop order
	Leaves   []*Service // the fan-out subset of Services (if any)
	Sink     *Service   // notification sink (nil unless cfg.Notify)
	Client   *Client
}

// NewChain builds the call graph on a fresh Rack. Plug-in order — tiers,
// leaves, sink, client — is part of the deterministic identity of a run,
// exactly like ClusterTestbed's servers-then-clients order.
func NewChain(cfg ChainConfig) *Chain {
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	c := &Chain{Rack: driver.NewRack(cfg.Fabric)}

	mk := func(name string, hop int) *Service {
		n, addr := c.AddNode(cfg.Profile, cfg.Cache)
		s := NewService(n, cfg.Sys, name, hop, addr)
		s.CallTimeout = cfg.CallTimeout
		s.AppCycles = cfg.AppCycles
		s.ShedQueue = cfg.ShedQueue
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
		tiers[i] = mk("t"+string('0'+byte(i+1)), i+1)
	}
	for i := 0; i < cfg.Depth-1; i++ {
		tiers[i].Backends = []byte{tiers[i+1].Addr}
	}
	for j := 0; j < cfg.Fanout; j++ {
		leaf := mk("leaf"+string('0'+byte(j)), cfg.Depth+1)
		c.Leaves = append(c.Leaves, leaf)
		tiers[cfg.Depth-1].Backends = append(tiers[cfg.Depth-1].Backends, leaf.Addr)
	}
	if cfg.Notify {
		c.Sink = mk("sink", cfg.Depth+2)
		tiers[0].NotifyAddr = c.Sink.Addr
	}
	if cfg.Offload {
		for _, s := range c.Services {
			if s == c.Sink {
				continue // the sink only consumes; nothing to offload
			}
			// The offload engine is part of the tier's NIC, so it runs on
			// the tier's engine.
			off := sim.NewCore(s.N.Eng)
			off.MaxQueue = 1024
			s.Offload = off
		}
	}

	cn, _ := c.AddNode(cfg.Profile, cachesim.DefaultConfig())
	c.Client = NewClient(cn, cfg.Sys, tiers[0].Addr)
	if cfg.ReqBytes > 0 {
		c.Client.ReqBytes = cfg.ReqBytes
	}
	return c
}

// Hops is the end-to-end tier count of a request's critical path
// (chain depth plus the fan-out layer if present).
func (c *Chain) Hops() int {
	if len(c.Leaves) > 0 {
		return len(c.Services) - len(c.Leaves) + 1
	}
	n := len(c.Services)
	if c.Sink != nil {
		n--
	}
	return n
}

// HostReceipt sums the host-core receipts over every tier (not the sink)
// and the handled-call count; OffloadReceipt does the same for the
// NIC-side engines. Both feed the serialization-share and offload-benefit
// observables.
func (c *Chain) HostReceipt() (costmodel.Receipt, uint64) { return c.receipts(false) }

// OffloadReceipt sums the offload-engine receipts over every tier.
func (c *Chain) OffloadReceipt() (costmodel.Receipt, uint64) { return c.receipts(true) }

func (c *Chain) receipts(off bool) (costmodel.Receipt, uint64) {
	var rec costmodel.Receipt
	var n uint64
	for _, s := range c.Services {
		if s == c.Sink {
			continue
		}
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
