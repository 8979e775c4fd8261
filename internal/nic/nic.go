// Package nic simulates a commodity scatter-gather NIC pair connected by a
// link, substituting for the Mellanox ConnectX-5/6 and Intel E810 hardware
// in the paper's testbed.
//
// The model captures what matters for the copy/zero-copy tradeoff:
//
//   - Scatter-gather transmit: a packet is described by a list of SG
//     entries; the NIC issues one PCIe read per entry to gather them
//     ("tells the NIC to make three PCIe requests to coalesce the buffers",
//     Fig. 1). NIC-side gather costs latency and NIC bandwidth, not host
//     CPU cycles — host-side descriptor costs are charged by the cost
//     model, not here.
//   - A per-profile maximum SG entry count (the Intel E810 supports only 8,
//     §6.3); exceeding it is a send error the stack must avoid.
//   - Link serialization at the configured rate and propagation delay.
//   - Asynchronous completion: each entry's completion hook fires only
//     after the DMA engine has read the data, which is what makes
//     use-after-free protection necessary in the first place (§2.3).
//
// Functionally the NIC gathers real bytes: the delivered frame is the exact
// concatenation of the SG entries, so receivers parse genuine wire bytes.
package nic

import (
	"fmt"

	"cornflakes/internal/sim"
)

// Profile describes one NIC model.
type Profile struct {
	Name string
	// MaxSGEntries is the hardware limit on scatter-gather entries per
	// frame, including the entry holding the packet header.
	MaxSGEntries int
	// LinkGbps is the port rate.
	LinkGbps float64
	// PerEntryDMANs is the added gather *latency* per SG entry: each entry
	// is one more PCIe read in the pipeline, so a many-entry frame takes
	// longer to assemble — but reads overlap, so the per-entry *occupancy*
	// (EntryOccupancyNs) is far smaller.
	PerEntryDMANs float64
	// PerPacketNs is fixed NIC processing latency per frame.
	PerPacketNs float64
	// PacketOccupancyNs and EntryOccupancyNs are the DMA engine's
	// throughput costs: the pipeline issues a new frame every
	// PacketOccupancyNs + entries*EntryOccupancyNs + bytes/DMAGbps,
	// regardless of the end-to-end assembly latency. PacketOccupancyNs is
	// also the per-doorbell cost — fetching a fresh batch of descriptors
	// after a tail-pointer write — which is exactly what batching
	// amortizes: only the first frame of a burst pays it.
	PacketOccupancyNs float64
	EntryOccupancyNs  float64
	// DMAGbps is the DMA engine's effective read bandwidth.
	DMAGbps float64
	// MaxTxBurst is the largest number of frames the driver may post under
	// a single doorbell ring (the hardware TX queue's burst limit): a
	// batching driver rings it with Send for the first frame of each chunk
	// of this size and posts the rest with SendBehind. Zero or one means
	// the NIC takes no amortization: every frame pays the full
	// per-doorbell cost, as in Send.
	MaxTxBurst int
}

// MellanoxCX5Ex models the CloudLab c6525-100g NIC used for the §5
// measurement study.
func MellanoxCX5Ex() Profile {
	return Profile{
		Name:              "Mellanox CX-5Ex",
		MaxSGEntries:      64,
		LinkGbps:          100,
		PerEntryDMANs:     55,
		PerPacketNs:       300,
		PacketOccupancyNs: 8,
		EntryOccupancyNs:  2,
		DMAGbps:           200,
		MaxTxBurst:        32,
	}
}

// MellanoxCX6 models the ConnectX-6 NICs used for the end-to-end
// experiments (§6.1.1).
func MellanoxCX6() Profile {
	return Profile{
		Name:              "Mellanox CX-6",
		MaxSGEntries:      64,
		LinkGbps:          100,
		PerEntryDMANs:     50,
		PerPacketNs:       280,
		PacketOccupancyNs: 7,
		EntryOccupancyNs:  2,
		DMAGbps:           220,
		MaxTxBurst:        32,
	}
}

// IntelE810 models the E810-CQDA2, which "supports only up to 8
// scatter-gather entries" (§6.3).
func IntelE810() Profile {
	return Profile{
		Name:              "Intel E810-CQDA2",
		MaxSGEntries:      8,
		LinkGbps:          100,
		PerEntryDMANs:     65,
		PerPacketNs:       320,
		PacketOccupancyNs: 10,
		EntryOccupancyNs:  3,
		DMAGbps:           200,
		MaxTxBurst:        8,
	}
}

// SGReleaser is an entry's completion hook: a long-lived implementor
// (the netstack releaser) receives the entry's RelArg back at DMA-completion
// time. Passing a pointer through the arg interface does not allocate, so
// posting an entry allocates nothing.
type SGReleaser interface {
	ReleaseSG(arg any)
}

// SGEntry is one element of a transmit gather list.
type SGEntry struct {
	// Data is the real bytes the NIC will place in the frame.
	Data []byte
	// Sim is the simulated physical address of Data (for diagnostics; DMA
	// reads are not routed through the CPU cache model — DMA on these
	// platforms does not allocate into CPU caches).
	Sim uint64
	// Rel, if non-nil, runs as Rel.ReleaseSG(RelArg) when the DMA engine
	// has finished reading this entry. The networking stack uses it to
	// drop its buffer reference (use-after-free protection).
	Rel    SGReleaser
	RelArg any
}

// Frame is a received packet.
type Frame struct {
	Data []byte
	// SentAt is when the sender posted the frame (for RTT bookkeeping in
	// tests; real stacks carry timestamps in payloads).
	SentAt sim.Time
}

// Handler consumes received frames. The *Frame is only valid for the
// duration of the call (it may be pooled); handlers keep Data — which
// remains theirs — not the Frame itself.
type Handler func(*Frame)

// Delivery describes one copy of an intercepted frame to put on the wire.
// An Interceptor returns zero or more Deliveries per transmitted frame:
// none drops the frame, several duplicate it, and each copy may carry
// substituted (e.g. corrupted) bytes and extra delay beyond serialization
// and propagation. Out-of-order delivery falls out of unequal delays.
type Delivery struct {
	Data  []byte
	Delay sim.Time
}

// Interceptor sits on the wire path between DMA completion and delivery —
// a programmable bad link. It never affects buffer release, which has
// already happened when the hardware read the data. internal/faults builds
// its seeded loss/reorder/duplication/corruption model on this hook; a
// test drops a frame by returning no deliveries for it.
type Interceptor func(data []byte) []Delivery

// frameFCS models the Ethernet frame check sequence the NIC appends on
// transmit and verifies on receive. Corruption on the wire is detected
// here — in "hardware", for free — and the frame is dropped before the
// stack sees it, exactly like a real NIC discarding a bad-CRC frame.
// A 32-bit sum of byte×position terms is enough to guarantee detection of
// any single-byte change, which is all the fault model injects.
func frameFCS(data []byte) uint32 {
	var sum uint32
	for i, b := range data {
		sum = sum*31 + uint32(b) + uint32(i)
	}
	return sum
}

// TxRecord is the timing record of one transmitted frame, reported to the
// port's Observer at DMA completion.
type TxRecord struct {
	// Posted is when Send was called; DMADone when the gather finished and
	// buffers were released; TxDone when the frame left the wire; DeliverAt
	// when it reaches the peer (before any interceptor-added delay).
	Posted, DMADone, TxDone, DeliverAt sim.Time
	// Bytes and Entries describe the frame; Data is the assembled frame
	// contents (read-only — the same backing array is delivered to the
	// peer, and may be recycled for a later frame once delivery completes,
	// so observers must not retain it past the callback).
	Bytes   int
	Entries int
	Data    []byte
	// Dropped reports that the frame was lost on the wire (an Interceptor
	// returned no deliveries); DeliverAt is then the time it would have
	// arrived.
	Dropped bool
}

// Port is one NIC attached to one end of a link.
type Port struct {
	eng     *sim.Engine
	prof    Profile
	peer    *Port
	propag  sim.Time
	handler Handler

	dmaFree sim.Time // DMA engine availability
	txFree  sim.Time // wire availability

	// Interceptor, when set, is consulted per frame after DMA completes
	// and decides how (and how many times) the frame reaches the peer. See
	// Interceptor.
	Interceptor Interceptor

	// InjectSendErr, when set, is consulted at the top of Send; a non-nil
	// return refuses the post — modelling a full TX descriptor ring —
	// before the NIC takes any buffer reference. Tests use it to exercise
	// the stack's transmit-failure paths deterministically.
	InjectSendErr func() error

	// Observer, when set, is called once per posted frame at DMA-completion
	// time with the frame's timing record. By then every instant in the
	// record is determined (wire serialization and delivery are scheduled,
	// not speculative), so a tracer can mark a request's whole TX chain from
	// one callback. Observation is passive: it never alters timing, buffer
	// release, or delivery.
	Observer func(TxRecord)

	// DroppedFrames counts frames lost on the wire (frames the
	// Interceptor returned no deliveries for).
	DroppedFrames uint64

	// RefusedSends counts posts rejected by InjectSendErr.
	RefusedSends uint64

	// RxFCSErrors counts arriving frames discarded because their contents
	// no longer matched the transmit-side frame check sequence (wire
	// corruption detected by the receiving NIC).
	RxFCSErrors uint64

	// Stats. TxFrames/TxBytes count frames *posted* (accepted by the
	// hardware), whether or not they survive the wire; use
	// DeliveredFrames/DeliveredBytes for "reached the peer intact".
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	TxSGEntries        uint64

	// DeliveredFrames/DeliveredBytes count frames that arrived at the peer
	// intact — after Interceptor drops and FCS checks — from the sender's
	// perspective. Duplicated copies each count once (they are distinct
	// arrivals). Goodput-style accounting must use these, not
	// TxFrames/TxBytes, which are charged at post time before any wire
	// fault can intervene.
	DeliveredFrames uint64
	DeliveredBytes  uint64

	// TxDoorbells counts doorbell rings: one per Send, none per
	// SendBehind. The amortization the batched datapath buys is visible as
	// TxDoorbells < TxFrames.
	TxDoorbells uint64

	// txPool and rxPool recycle the per-frame transmit and delivery state
	// (each op carries its callback closure, bound once at creation, so a
	// steady-state send schedules zero new closures): tx ops live from post
	// to DMA completion, rx ops from DMA completion to delivery.
	txPool []*txOp
	rxPool []*rxOp

	// dataPool recycles assembled-frame buffers. A frame buffer is handed
	// to the observer and the peer's handler, neither of which may keep it
	// past the call; once the pooled delivery returns, the buffer goes back
	// here. Frames that pass through an interceptor are never recycled —
	// their lifetime is not visible from the port.
	dataPool [][]byte

	// RetainsRx marks that this port's handler legitimately keeps
	// Frame.Data beyond the handler call — a store-and-forward switch
	// queuing the frame for egress. Senders then leave delivered buffers
	// to the garbage collector instead of recycling them.
	RetainsRx bool
}

// getData returns a zero-length frame buffer with at least total capacity,
// reusing a recycled one when it is big enough.
func (p *Port) getData(total int) []byte {
	if k := len(p.dataPool); k > 0 {
		b := p.dataPool[k-1]
		p.dataPool[k-1] = nil
		p.dataPool = p.dataPool[:k-1]
		if cap(b) >= total {
			return b[:0]
		}
		// Too small for this frame: drop it; the pool converges to the
		// run's largest frame size.
	}
	return make([]byte, 0, total)
}

func (p *Port) putData(b []byte) { p.dataPool = append(p.dataPool, b) }

// txOp is the in-flight state of one posted frame between Send and DMA
// completion. The gather list is copied in (callers may reuse their entry
// slices immediately after posting).
type txOp struct {
	p       *Port
	entries []SGEntry
	total   int
	sentAt  sim.Time
	dmaDone sim.Time
	txDone  sim.Time
	run     func() // bound once: op.dmaComplete
}

// rxOp is the pooled delivery of one frame copy.
// The embedded Frame is handed to the receive handler by pointer and
// reused afterwards (see Handler). A copy that passed an Interceptor is
// checked: it is discarded on arrival unless it still matches fcs, the
// transmit-side frame check sequence, and its buffer is never recycled.
type rxOp struct {
	p       *Port // sending port: owns the pool, writes Delivered* stats
	frame   Frame
	fcs     uint32
	checked bool
	run     func() // bound once: op.deliver
}

func (p *Port) getTxOp() *txOp {
	if n := len(p.txPool); n > 0 {
		op := p.txPool[n-1]
		p.txPool[n-1] = nil
		p.txPool = p.txPool[:n-1]
		return op
	}
	op := &txOp{p: p}
	op.run = op.dmaComplete
	return op
}

func (p *Port) recycleTxOp(op *txOp) {
	clear(op.entries) // drop buffer and closure references promptly
	op.entries = op.entries[:0]
	p.txPool = append(p.txPool, op)
}

func (p *Port) getRxOp() *rxOp {
	if n := len(p.rxPool); n > 0 {
		op := p.rxPool[n-1]
		p.rxPool[n-1] = nil
		p.rxPool = p.rxPool[:n-1]
		return op
	}
	op := &rxOp{p: p}
	op.run = op.deliver
	return op
}

// Link connects two new ports with the given profiles and one-way
// propagation delay (wire + switch).
func Link(eng *sim.Engine, a, b Profile, propagation sim.Time) (*Port, *Port) {
	pa := &Port{eng: eng, prof: a, propag: propagation}
	pb := &Port{eng: eng, prof: b, propag: propagation}
	pa.peer = pb
	pb.peer = pa
	return pa, pb
}

// Profile returns the port's NIC profile.
func (p *Port) Profile() Profile { return p.prof }

// Peer returns the port at the far end of the link: the other endpoint of
// a direct link, or the switch-side port of a fabric link.
func (p *Port) Peer() *Port { return p.peer }

// SetHandler installs the receive callback. Frames arriving with no handler
// are dropped.
func (p *Port) SetHandler(h Handler) { p.handler = h }

// ErrTooManyEntries is returned when a gather list exceeds the NIC limit.
type ErrTooManyEntries struct {
	Entries, Max int
}

func (e *ErrTooManyEntries) Error() string {
	return fmt.Sprintf("nic: %d scatter-gather entries exceeds hardware limit %d", e.Entries, e.Max)
}

// Send posts a frame described by a gather list. The NIC asynchronously:
//  1. gathers the entries over PCIe (DMA engine is a FIFO resource),
//  2. fires each entry's completion hook when its data has been read,
//  3. serializes the frame onto the wire (the wire is a FIFO resource),
//  4. delivers it to the peer after the propagation delay.
//
// The frame contents are snapshotted at gather completion, consistent with
// hardware: mutating a buffer before DMA finishes is a race the paper's
// safety model explicitly does not protect against.
func (p *Port) Send(entries []SGEntry) error {
	p.TxDoorbells++
	return p.send(entries, p.prof.PacketOccupancyNs)
}

// SendBehind posts a frame behind the doorbell an earlier Send rang: one
// more descriptor of the same burst, so it rings nothing and pays no
// per-doorbell DMA occupancy. Otherwise it is Send. Which frames share a
// doorbell is the driver's choice (netstack.UDP's TX batch).
func (p *Port) SendBehind(entries []SGEntry) error {
	return p.send(entries, 0)
}

// send posts one frame charging doorbellNs of per-doorbell DMA occupancy
// (the full cost for Send, zero for SendBehind).
func (p *Port) send(entries []SGEntry, doorbellNs float64) error {
	if len(entries) == 0 {
		return fmt.Errorf("nic: empty gather list")
	}
	if len(entries) > p.prof.MaxSGEntries {
		return &ErrTooManyEntries{Entries: len(entries), Max: p.prof.MaxSGEntries}
	}
	if p.InjectSendErr != nil {
		if err := p.InjectSendErr(); err != nil {
			p.RefusedSends++
			return err
		}
	}
	total := 0
	for _, e := range entries {
		total += len(e.Data)
	}
	now := p.eng.Now()
	p.TxFrames++
	p.TxBytes += uint64(total)
	p.TxSGEntries += uint64(len(entries))

	// DMA engine occupancy (pipeline issue rate) vs assembly latency: the
	// engine frees up after the occupancy, while the frame finishes
	// assembling after the additional pipelined latency.
	occupancy := sim.FromNanos(doorbellNs +
		p.prof.EntryOccupancyNs*float64(len(entries)) +
		float64(total)*8/p.prof.DMAGbps)
	latency := sim.FromNanos(p.prof.PerPacketNs +
		p.prof.PerEntryDMANs*float64(len(entries)))
	dmaStart := max(now, p.dmaFree)
	p.dmaFree = dmaStart + occupancy
	dmaDone := dmaStart + occupancy + latency

	// Wire occupancy: frame serialization at line rate.
	wireTime := sim.FromNanos(float64(total) * 8 / p.prof.LinkGbps)
	txStart := max(dmaDone, p.txFree)
	txDone := txStart + wireTime
	p.txFree = txDone

	// Hand the frame to a pooled tx op. The gather list is copied at post
	// time — consistent with hardware reading descriptors at the doorbell —
	// so callers may reuse their entry slice (not the referenced Data)
	// immediately after send returns.
	op := p.getTxOp()
	op.entries = append(op.entries[:0], entries...)
	op.total = total
	op.sentAt = now
	op.dmaDone = dmaDone
	op.txDone = txDone
	p.eng.At(dmaDone, op.run)
	return nil
}

// dmaComplete runs at DMA-completion time: snapshot the frame exactly when
// the hardware has read it, release the buffers, then route the frame to
// the wire (interception) and schedule delivery.
func (op *txOp) dmaComplete() {
	p := op.p
	data := p.getData(op.total)
	for i := range op.entries {
		data = append(data, op.entries[i].Data...)
	}
	for i := range op.entries {
		if e := &op.entries[i]; e.Rel != nil {
			e.Rel.ReleaseSG(e.RelArg)
		}
	}
	sentAt, dmaDone, txDone := op.sentAt, op.dmaDone, op.txDone
	total, nEntries := op.total, len(op.entries)
	// Everything the rest of the path needs is copied out; recycling here
	// keeps the pool at max-in-flight size.
	p.recycleTxOp(op)

	observe := func(dropped bool) {
		if p.Observer != nil {
			p.Observer(TxRecord{
				Posted: sentAt, DMADone: dmaDone, TxDone: txDone,
				DeliverAt: txDone + p.propag,
				Bytes:     total, Entries: nEntries, Data: data,
				Dropped: dropped,
			})
		}
	}
	if p.Interceptor == nil {
		observe(false)
		p.deliverAt(txDone+p.propag, data, sentAt, 0, false)
		return
	}
	// The hardware computed the FCS over the pristine frame; each wire
	// copy is re-checked on arrival so corruption injected by the
	// interceptor is discarded by the receiving NIC.
	fcs := frameFCS(data)
	ds := p.Interceptor(data)
	observe(len(ds) == 0)
	if len(ds) == 0 {
		p.DroppedFrames++
		return
	}
	frameWire := sim.FromNanos(float64(total) * 8 / p.prof.LinkGbps)
	for di, d := range ds {
		extra := d.Delay
		if extra < 0 {
			extra = 0
		}
		depart := txDone
		if di > 0 {
			// A duplicated copy is a real extra frame: it serializes
			// on the wire after whatever the port has already queued,
			// consuming link bandwidth like any other transmission.
			// (Before this, extra copies departed at txDone without
			// touching txFree — duplicates cost zero bandwidth and
			// soak runs understated congestion.)
			start := max(p.txFree, txDone)
			p.txFree = start + frameWire
			depart = p.txFree
		}
		p.deliverAt(depart+p.propag+extra, d.Data, sentAt, fcs, true)
	}
}

// deliverAt schedules one frame copy's arrival at the peer on a pooled rx
// op, so a steady-state delivery schedules no new closure.
func (p *Port) deliverAt(at sim.Time, data []byte, sentAt sim.Time, fcs uint32, checked bool) {
	op := p.getRxOp()
	op.frame = Frame{Data: data, SentAt: sentAt}
	op.fcs, op.checked = fcs, checked
	p.eng.At(at, op.run)
}

// deliver hands one frame copy to the peer's handler, charging both ends'
// delivery stats, or discards a checked copy that fails its FCS. An
// unchecked frame's buffer goes back to the pool afterwards unless the
// peer retains it.
func (op *rxOp) deliver() {
	p := op.p
	peer := p.peer
	data := op.frame.Data
	if op.checked && frameFCS(data) != op.fcs {
		peer.RxFCSErrors++
	} else {
		p.DeliveredFrames++
		p.DeliveredBytes += uint64(len(data))
		peer.RxFrames++
		peer.RxBytes += uint64(len(data))
		if peer.handler != nil {
			peer.handler(&op.frame)
		}
		if !op.checked && !peer.RetainsRx {
			p.putData(data)
		}
	}
	op.frame = Frame{}
	p.rxPool = append(p.rxPool, op)
}
