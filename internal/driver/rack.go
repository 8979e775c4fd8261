package driver

import (
	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/fabric"
	"cornflakes/internal/mem"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// Rack is the one topology builder: an engine, its ToR switch and its
// nodes. Nodes join through the switch (AddNode), as a pair on a direct
// link (Testbed), or as sibling cores behind one port (Cores). It owns
// nothing KV-shaped — a node becomes a KV shard, an RPC service, a cache
// tier, or a load generator by what its owner attaches to it, so new
// scenario families compose here instead of re-deriving node and switch
// plumbing. ClusterTestbed builds its sharded rack on top; internal/rpc
// builds call graphs the same way.
type Rack struct {
	// Eng is the rack's one engine: the switch and every node run on it.
	Eng    *sim.Engine
	Switch *fabric.Switch
	// Exec is the handle the harness drives the run through; it is Eng.
	Exec sim.Runner
	// Nodes lists every node in build order. Addrs lists the switched
	// nodes' fabric addresses, which the switch hands out as 1..n in
	// AddNode order, so construction order is part of a scenario's
	// deterministic identity. switched[i] is the node at Addrs[i].
	Nodes    []*Node
	Addrs    []byte
	switched []*Node
}

// NewRack builds an empty rack: one engine, one ToR switch. A zero
// fabric.Config takes the defaults (100 Gbps ports, 300 ns switching
// latency, 256-frame output queues).
func NewRack(fcfg fabric.Config) *Rack {
	eng := sim.NewEngine()
	return &Rack{Eng: eng, Exec: eng, Switch: fabric.New(eng, fcfg)}
}

// RxRingDepth bounds every server's request queue (sim.Queue), modelling
// the RX descriptor ring: overload drops packets instead of queueing
// unboundedly.
const RxRingDepth = 1024

// propagation models wire plus switch latency one way.
const propagation = 1500 * sim.Nanosecond

// addNode builds a node on port around the given cache hierarchy and
// appends it to Nodes. Pass useTCP to attach the TCP-lite stack instead of
// UDP.
func (r *Rack) addNode(port *nic.Port, useTCP bool, cache *cachesim.Hierarchy) *Node {
	alloc := mem.NewAllocator()
	arena := mem.NewArena(256 << 10)
	meter := costmodel.NewMeter(costmodel.DefaultCPU(), cache)
	n := &Node{
		Eng:   r.Eng,
		Port:  port,
		Alloc: alloc,
		Arena: arena,
		Cache: cache,
		Meter: meter,
		Ctx:   core.NewCtx(alloc, arena, meter),
		Core:  sim.NewCore(r.Eng),
	}
	if useTCP {
		n.TCP = netstack.NewTCPConn(r.Eng, port, alloc, meter)
		n.stack = n.TCP
	} else {
		n.UDP = netstack.NewUDP(r.Eng, port, alloc, meter)
		n.stack = n.UDP
	}
	r.Nodes = append(r.Nodes, n)
	return n
}

// unmetered makes n a load generator's node and returns it: its meter
// models no cache, so its sends, receives and decodes do no cache-model
// work. The paper measures one server core while a dedicated machine
// generates the load (§6.1.1), and only a server's meter is drained into
// simulated time, so nothing a load generator's cache could hold reaches a
// result. n keeps its hierarchy for readers of every node's Cache; left
// untouched, it holds no cache pages.
func unmetered(n *Node) *Node {
	n.Meter.Cache = nil
	return n
}

// AddNode plugs a fresh UDP node into the switch and returns it with its
// fabric address.
func (r *Rack) AddNode(profile nic.Profile, cacheCfg cachesim.Config) (*Node, byte) {
	port, addr := r.Switch.PlugIn(profile, propagation)
	n := r.addNode(port, false, cachesim.New(cacheCfg))
	n.UDP.LocalAddr = addr
	r.Addrs = append(r.Addrs, addr)
	r.switched = append(r.switched, n)
	return n, addr
}

// AddClient plugs a load generator into the switch: a UDP node whose meter
// models no cache (see unmetered).
func (r *Rack) AddClient(profile nic.Profile) (*Node, byte) {
	n, addr := r.AddNode(profile, cachesim.DefaultConfig())
	return unmetered(n), addr
}

// Cores returns n followed by k−1 sibling UDP nodes on n's port, each with
// its own allocator, arena, meter, core and L1/L2 over n's L3 (§6.6), and
// installs receive-side scaling on the port (netstack.Steer): a frame
// whose destination byte is i reaches core i mod k through that core's
// own stack, so a client addresses core i by setting its DstAddr to i.
func (r *Rack) Cores(n *Node, k int) []*Node {
	cores := []*Node{n}
	stacks := []*netstack.UDP{n.UDP}
	for i := 1; i < k; i++ {
		c := r.addNode(n.Port, false, cachesim.NewShared(n.Cache))
		cores = append(cores, c)
		stacks = append(stacks, c.UDP)
	}
	netstack.Steer(n.Port, stacks)
	return cores
}

// Testbed is a client and server pair joined by one direct link,
// mirroring the back-to-back machine pairs of §6.1.1: a two-node Rack
// whose switch stays idle. The client is a load generator (see unmetered).
type Testbed struct {
	*Rack
	Client, Server *Node
}

// NewTestbed builds a UDP testbed with the given NIC profile on both ends.
func NewTestbed(profile nic.Profile) *Testbed {
	return newTestbed(profile, cachesim.DefaultConfig(), false)
}

// NewTestbedCfg builds a UDP testbed with an explicit server cache config;
// experiments shrink the modelled L3 so scaled-down stores keep the
// paper's working-set-vs-cache ratios.
func NewTestbedCfg(profile nic.Profile, cacheCfg cachesim.Config) *Testbed {
	return newTestbed(profile, cacheCfg, false)
}

// NewTCPTestbed builds a TCP testbed.
func NewTCPTestbed(profile nic.Profile) *Testbed {
	return newTestbed(profile, cachesim.DefaultConfig(), true)
}

func newTestbed(profile nic.Profile, cacheCfg cachesim.Config, useTCP bool) *Testbed {
	r := NewRack(fabric.Config{})
	pc, ps := nic.Link(r.Eng, profile, profile, propagation)
	client := unmetered(r.addNode(pc, useTCP, cachesim.New(cachesim.DefaultConfig())))
	server := r.addNode(ps, useTCP, cachesim.New(cacheCfg))
	return &Testbed{Rack: r, Client: client, Server: server}
}

// FrameLedger sums every frame counter in the topology, stage by stage, so
// a chaos scenario can prove no frame was lost silently: every posted
// frame must be accounted as delivered, wire-dropped, FCS-discarded,
// downed-port-discarded, switch-tail-dropped, misrouted, or host-down
// dropped. "Up" is endpoint→switch, "Down" is switch→endpoint.
type FrameLedger struct {
	// Up direction, summed over all endpoint NICs.
	EndpointTx  uint64 // frames posted by endpoints
	UpDelivered uint64 // reached the switch NIC intact
	UpDropped   uint64 // lost on the up wire (injector)
	UpFCS       uint64 // corrupted on the up wire, discarded by the switch NIC

	// Inside the switch.
	SwitchIn      uint64 // frames the switch ingressed
	DownedIngress uint64 // arrived on an admin-down port
	Misrouted     uint64 // no route for the destination byte
	SwitchOut     uint64 // forwarded onto an egress link
	EgressDrops   uint64 // tail-dropped at a full output queue
	DownedEgress  uint64 // egress port was admin-down

	// Down direction, summed over all switch-side link ports.
	DownDelivered uint64 // reached the endpoint NIC intact
	DownDropped   uint64 // lost on the down wire (injector)
	DownFCS       uint64 // corrupted on the down wire, discarded by the endpoint NIC

	// At the endpoints.
	EndpointRx    uint64 // frames the endpoint stacks saw (incl. host-down)
	HostDownDrops uint64 // frames that arrived at a crashed host
}

// Ledger gathers the FrameLedger over every switched node in the rack (a
// Testbed's direct link has none). Call it only after the engine has
// quiesced (Eng.Run()): frames still inside the switch pipeline or on a
// wire would read as conservation gaps.
func (r *Rack) Ledger() FrameLedger {
	var l FrameLedger
	for i, addr := range r.Addrs {
		l.add(addr, r.switched[i], r.Switch)
	}
	l.Misrouted = r.Switch.Misrouted()
	return l
}

func (l *FrameLedger) add(addr byte, n *Node, sw *fabric.Switch) {
	ep, u := n.Port, n.UDP
	lp := ep.Peer()
	ps := sw.Stats(addr)
	l.EndpointTx += ep.TxFrames
	l.UpDelivered += ep.DeliveredFrames
	l.UpDropped += ep.DroppedFrames
	l.UpFCS += lp.RxFCSErrors
	l.SwitchIn += ps.InFrames
	l.DownedIngress += ps.DownedIngress
	l.SwitchOut += ps.OutFrames
	l.EgressDrops += ps.EgressDrops
	l.DownedEgress += ps.DownedEgress
	l.DownDelivered += lp.DeliveredFrames
	l.DownDropped += lp.DroppedFrames
	l.DownFCS += ep.RxFCSErrors
	l.EndpointRx += u.RxPackets + u.RxDownDrops
	l.HostDownDrops += u.RxDownDrops
}

// SilentLoss returns the total conservation gap across the four frame
// stages — zero when every frame is accounted for. dupUp/dupDown are the
// injector duplication counts for the up and down wires (duplicates are
// distinct arrivals the post-time counters never saw).
func (l FrameLedger) SilentLoss(dupUp, dupDown uint64) int64 {
	gap := func(in, out uint64) int64 {
		d := int64(in) - int64(out)
		if d < 0 {
			d = -d
		}
		return d
	}
	up := gap(l.EndpointTx+dupUp, l.UpDelivered+l.UpDropped+l.UpFCS)
	sw := gap(l.SwitchIn, l.DownedIngress+l.Misrouted+l.SwitchOut+l.EgressDrops+l.DownedEgress)
	down := gap(l.SwitchOut+dupDown, l.DownDelivered+l.DownDropped+l.DownFCS)
	host := gap(l.DownDelivered, l.EndpointRx)
	return up + sw + down + host
}
