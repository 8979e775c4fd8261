// Package fabric simulates a top-of-rack switch connecting many endpoint
// NICs on one engine, in the component/port/connection style of the Akita
// simulator family: the switch is a component owning one switch-side port
// per attached endpoint; PlugIn manufactures the connection (a nic.Link)
// and hands the endpoint its own port.
//
// The model is a store-and-forward output-queued switch:
//
//   - Ingress: a frame arriving on any switch-side port is routed by the
//     destination address byte the netstack writes into the packet header
//     (netstack.HdrDstOff). Unroutable frames are counted and dropped.
//   - Switching latency: a fixed per-frame forwarding delay (pipeline +
//     lookup), configured in nanoseconds.
//   - Egress: the frame is re-posted on the destination's switch-side
//     port, so output contention falls out of the NIC model's FIFO
//     resources — frames to a hot server queue behind each other at that
//     port's line rate while other ports stay idle. Each output queue is
//     bounded; frames beyond the bound are tail-dropped and counted.
//   - Contention accounting: per egress port, the cumulative time frames
//     spent queued beyond the unloaded forwarding cost, measured from the
//     port's transmit records.
//
// Nothing here touches engine-global state: a Switch lives entirely inside
// the engine it was built with, preserving the per-sweep-point isolation
// contract (DESIGN.md §13).
package fabric

import (
	"fmt"

	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// Config describes the switch.
type Config struct {
	// Port is the profile of every switch-side egress port. The zero value
	// selects TorPortProfile(100). (A zero Profile itself is not a valid
	// port — its rates divide by zero — so the sentinel costs nothing.)
	Port nic.Profile
	// LatencyNs is the fixed store-and-forward switching delay per frame.
	// Zero selects 300 ns, a typical ToR pipeline plus lookup.
	LatencyNs float64
	// EgressDepth bounds each output queue in frames; beyond it the switch
	// tail-drops. Zero selects 256.
	EgressDepth int
}

// DefaultConfig returns the standard 100 Gbps ToR configuration.
func DefaultConfig() Config {
	return Config{Port: TorPortProfile(100), LatencyNs: 300, EgressDepth: 256}
}

// TorPortProfile models one switch egress port at the given line rate: no
// scatter-gather (the switch forwards whole frames), a shallow forwarding
// pipeline, and an internal fabric that moves frames to the output queue
// faster than the line drains it (output-queued switches are built with
// internal speedup for exactly this reason).
func TorPortProfile(linkGbps float64) nic.Profile {
	return nic.Profile{
		Name:              fmt.Sprintf("ToR egress %gG", linkGbps),
		MaxSGEntries:      4,
		LinkGbps:          linkGbps,
		PerEntryDMANs:     0,
		PerPacketNs:       40,
		PacketOccupancyNs: 5,
		EntryOccupancyNs:  0,
		DMAGbps:           4 * linkGbps,
		MaxTxBurst:        8,
	}
}

// PortStats counts one switch-side port's traffic. In* counts frames the
// switch received from the attached endpoint; Out* counts frames forwarded
// *to* the endpoint (posted on this port as egress).
type PortStats struct {
	InFrames, InBytes   uint64
	OutFrames, OutBytes uint64
	// EgressDrops counts frames tail-dropped because this output queue was
	// at EgressDepth.
	EgressDrops uint64
	// DownedIngress counts frames that arrived from the endpoint while the
	// port was administratively down; DownedEgress counts frames that would
	// have been forwarded to the endpoint through a downed port. A flapped
	// port swallows traffic loudly — both sides of the flap are counted, so
	// frame conservation stays exact through any storm.
	DownedIngress uint64
	DownedEgress  uint64
	// MaxBacklog is the deepest this output queue got, in frames.
	MaxBacklog int
	// ContentionNs is the cumulative time forwarded frames waited at this
	// egress beyond the unloaded forwarding cost — the port-contention
	// signal the cluster experiment reports.
	ContentionNs float64
}

// swPort is one switch-side port and its output queue state.
type swPort struct {
	addr        byte
	link        *nic.Port // switch-side end of the link to the endpoint
	outstanding int       // frames posted but not yet off the wire
	adminDown   bool      // administratively downed (port flap)
	stats       PortStats
	// drained is the drain callback, bound once in PlugIn so a forwarded
	// frame leaving the wire schedules no new closure.
	drained func()
	// gathering holds the frames posted on link whose egress DMA has not
	// completed yet, in post order. The port's DMA completes in post
	// order, so egressDone hands the head back to its sender.
	gathering frameFIFO
}

func (p *swPort) drain() { p.outstanding-- }

// fwdFrame is one frame the switch holds, bound for port out. owner is the
// endpoint port whose frame pool data came from (nil for a copy that
// passed an interceptor, which is never given back).
type fwdFrame struct {
	out   *swPort
	data  []byte
	owner *nic.Port
}

// release gives the frame's buffer back to the endpoint that sent it: the
// switch calls it once the egress port has gathered the frame, or at once
// when it drops the frame.
func (f fwdFrame) release() {
	if f.owner != nil {
		f.owner.Recycle(f.data)
	}
}

// frameFIFO is a queue of frames that keeps its array: a push into a full
// array with a spent prefix slides the waiting frames down instead of
// growing, so the array stays as long as the most frames ever queued.
type frameFIFO struct {
	q    []fwdFrame
	head int
}

func (f *frameFIFO) push(fr fwdFrame) {
	if len(f.q) == cap(f.q) && f.head > 0 {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, fr)
}

func (f *frameFIFO) pop() fwdFrame {
	fr := f.q[f.head]
	f.q[f.head] = fwdFrame{}
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return fr
}

// Switch is the ToR component.
type Switch struct {
	eng    *sim.Engine
	cfg    Config
	ports  []*swPort
	byAddr [256]*swPort

	// fwd holds the frames in their switching delay, in arrival order.
	// Every frame waits the same LatencyNs and arrivals never go back in
	// time, so the forward events fire in arrival order and each takes the
	// head. forwardHead is bound once in New, so ingress schedules no
	// closure per frame.
	fwd         frameFIFO
	forwardHead func()

	// misrouted counts frames whose destination byte matched no attached
	// port (or runt frames too short to carry an address).
	misrouted uint64
}

// New builds a switch on eng. Zero-valued Config fields take the
// DefaultConfig values.
func New(eng *sim.Engine, cfg Config) *Switch {
	def := DefaultConfig()
	if cfg.Port.Name == "" {
		cfg.Port = def.Port
	}
	if cfg.LatencyNs == 0 {
		cfg.LatencyNs = def.LatencyNs
	}
	if cfg.EgressDepth == 0 {
		cfg.EgressDepth = def.EgressDepth
	}
	s := &Switch{eng: eng, cfg: cfg}
	s.forwardHead = s.forwardNext
	return s
}

// PlugIn attaches one endpoint: it creates a link between a fresh
// endpoint-side port (with the given NIC profile and one-way propagation
// delay) and a fresh switch-side port, and returns the endpoint port plus
// the fabric address the switch will route to it. Addresses start at 1;
// 0 stays reserved as "unaddressed" so legacy single-link frames (which
// carry zeroed headers) are visibly unroutable rather than silently
// delivered to the first endpoint.
func (s *Switch) PlugIn(prof nic.Profile, propagation sim.Time) (*nic.Port, byte) {
	if len(s.ports) >= 255 {
		panic("fabric: switch port space exhausted")
	}
	addr := byte(len(s.ports) + 1)
	ep, sw := nic.Link(s.eng, prof, s.cfg.Port, propagation)
	p := &swPort{addr: addr, link: sw}
	p.drained = p.drain
	sw.SetHandler(func(f *nic.Frame) { s.ingress(p, f) })
	// The switch queues f.Data for egress (store-and-forward), so the
	// sending NIC does not recycle delivered frame buffers itself: the
	// switch gives each one back to f.Owner when it is done with it.
	sw.RetainsRx = true
	sw.Observer = func(rec nic.TxRecord) { s.egressDone(p, rec) }
	s.ports = append(s.ports, p)
	s.byAddr[addr] = p
	return ep, addr
}

// ingress routes one frame arriving from the endpoint behind p. A frame it
// drops goes straight back to its sender.
func (s *Switch) ingress(p *swPort, f *nic.Frame) {
	p.stats.InFrames++
	p.stats.InBytes += uint64(len(f.Data))
	fr := fwdFrame{data: f.Data, owner: f.Owner}
	if p.adminDown {
		p.stats.DownedIngress++
		fr.release()
		return
	}
	if len(f.Data) <= netstack.HdrDstOff {
		s.misrouted++
		fr.release()
		return
	}
	fr.out = s.byAddr[f.Data[netstack.HdrDstOff]]
	if fr.out == nil {
		s.misrouted++
		fr.release()
		return
	}
	s.fwd.push(fr)
	s.eng.After(sim.FromNanos(s.cfg.LatencyNs), s.forwardHead)
}

// forwardNext forwards the frame at the head of the switching-delay FIFO.
func (s *Switch) forwardNext() { s.forward(s.fwd.pop()) }

// forward posts one frame on its egress port, or tail-drops it when the
// output queue is full. A posted frame waits in the port's gathering FIFO
// for its DMA; a dropped one goes straight back to its sender.
func (s *Switch) forward(f fwdFrame) {
	q := f.out
	if q.adminDown {
		q.stats.DownedEgress++
		f.release()
		return
	}
	if q.outstanding >= s.cfg.EgressDepth {
		q.stats.EgressDrops++
		f.release()
		return
	}
	err := q.link.Send([]nic.SGEntry{{Data: f.data}})
	if err != nil {
		// Only possible if an endpoint somehow sourced a frame the egress
		// port cannot carry, or the port refused the post; account it as
		// an egress drop, never panic the fabric mid-run.
		q.stats.EgressDrops++
		f.release()
		return
	}
	q.gathering.push(f)
	q.outstanding++
	if q.outstanding > q.stats.MaxBacklog {
		q.stats.MaxBacklog = q.outstanding
	}
	q.stats.OutFrames++
	q.stats.OutBytes += uint64(len(f.data))
}

// egressDone observes one forwarded frame's transmit record, which the
// port reports once it has gathered the frame: it gives the frame's
// buffer back to its sender, drains the output-queue bound when the frame
// leaves the wire, and accumulates the port-contention time (actual
// post-to-wire-exit time minus the unloaded forwarding cost of a frame
// that size).
func (s *Switch) egressDone(q *swPort, rec nic.TxRecord) {
	q.gathering.pop().release()
	wait := float64(rec.TxDone-rec.Posted)/float64(sim.Nanosecond) -
		unloadedNs(s.cfg.Port, rec.Bytes, rec.Entries)
	if wait > 0 {
		q.stats.ContentionNs += wait
	}
	s.eng.At(rec.TxDone, q.drained)
}

// unloadedNs returns the post-to-wire-exit time of a lone frame on an idle
// port: doorbell + per-entry + DMA occupancy, plus pipeline latency, plus
// wire serialization — the same terms nic.Port charges, with no queueing.
func unloadedNs(prof nic.Profile, bytes, entries int) float64 {
	occ := prof.PacketOccupancyNs + prof.EntryOccupancyNs*float64(entries) + float64(bytes)*8/prof.DMAGbps
	lat := prof.PerPacketNs + prof.PerEntryDMANs*float64(entries)
	wire := float64(bytes) * 8 / prof.LinkGbps
	return occ + lat + wire
}

// Ports returns the attached fabric addresses in plug-in order.
func (s *Switch) Ports() []byte {
	addrs := make([]byte, len(s.ports))
	for i, p := range s.ports {
		addrs[i] = p.addr
	}
	return addrs
}

// SetPortAdmin flips the administrative state of the port at addr — the
// fault layer's port-flap primitive. While down, frames arriving from the
// endpoint and frames to be forwarded to it are counted
// (DownedIngress/DownedEgress) and discarded: a flap loses traffic
// visibly, never silently. Frames already committed to the egress link
// when the port goes down finish transmitting, like a real cut mid-frame
// finishing from the MAC's FIFO. Unknown addresses are ignored.
func (s *Switch) SetPortAdmin(addr byte, up bool) {
	if p := s.byAddr[addr]; p != nil {
		p.adminDown = !up
	}
}

// PortAdminUp reports the administrative state of the port at addr (true
// for unknown addresses, which cannot be downed).
func (s *Switch) PortAdminUp(addr byte) bool {
	if p := s.byAddr[addr]; p != nil {
		return !p.adminDown
	}
	return true
}

// Stats returns the counters of the port at addr (zero stats for an
// unknown address).
func (s *Switch) Stats(addr byte) PortStats {
	if p := s.byAddr[addr]; p != nil {
		return p.stats
	}
	return PortStats{}
}

// TotalStats sums every port's counters.
func (s *Switch) TotalStats() PortStats {
	var t PortStats
	for _, p := range s.ports {
		t.InFrames += p.stats.InFrames
		t.InBytes += p.stats.InBytes
		t.OutFrames += p.stats.OutFrames
		t.OutBytes += p.stats.OutBytes
		t.EgressDrops += p.stats.EgressDrops
		t.DownedIngress += p.stats.DownedIngress
		t.DownedEgress += p.stats.DownedEgress
		t.ContentionNs += p.stats.ContentionNs
		if p.stats.MaxBacklog > t.MaxBacklog {
			t.MaxBacklog = p.stats.MaxBacklog
		}
	}
	return t
}

// Misrouted returns the count of frames dropped for want of a route.
func (s *Switch) Misrouted() uint64 { return s.misrouted }
