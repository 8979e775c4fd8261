// Package netstack implements the Cornflakes networking stacks: a
// kernel-bypass-style UDP datagram stack and a TCP-lite stack, both running
// over the simulated scatter-gather NIC.
//
// The UDP stack is co-designed with the serialization library: SendObject
// accepts a *core.Message directly and serializes it straight into transmit
// descriptors — the combined serialize-and-send API of §3.2.3. The
// SendObjectViaSGArray path materialises the intermediate scatter-gather
// array instead, reproducing the "without serialize-and-send" ablation of
// Table 5. Raw building blocks (SendContiguous, SendWith, SendPinned,
// SendSegments) give the baseline serializers exactly the datapaths §6.1.3
// describes for each library.
package netstack

import (
	"errors"
	"fmt"

	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

const (
	// PacketHeaderLen is Ethernet (14) + IPv4 (20) + UDP (8).
	PacketHeaderLen = 42
	// HdrDstOff/HdrSrcOff locate the fabric addresses inside the packet
	// header (standing in for destination/source IP). A switch routes on
	// the destination byte without parsing past the header.
	HdrDstOff = 1
	HdrSrcOff = 2
	// JumboFrame is the maximum frame size; the paper targets data
	// structures that fit in one jumbo frame (§2.1).
	JumboFrame = 9000
	// MaxPayload is the application payload budget per datagram.
	MaxPayload = JumboFrame - PacketHeaderLen
)

// ErrTooLarge reports an object that does not fit a jumbo frame. The
// prototype, like the paper's, does not segment UDP payloads (§4); callers
// split objects at a higher level (as the CDN and Twitter workloads do).
type ErrTooLarge struct{ Size int }

func (e *ErrTooLarge) Error() string {
	return fmt.Sprintf("netstack: %d-byte frame exceeds %d-byte jumbo frame", e.Size, JumboFrame)
}

// errFrameHeader reports a frame header handed to TCP-lite or the
// Segmenter: only the UDP stack writes one.
var errFrameHeader = errors.New("netstack: only the UDP stack writes a frame header")

// UDP is one endpoint of the datagram stack.
type UDP struct {
	Eng   *sim.Engine
	Port  *nic.Port
	Alloc *mem.Allocator
	Meter *costmodel.Meter

	// LocalAddr and DstAddr are fabric port addresses stamped into every
	// outgoing packet header (HdrSrcOff/HdrDstOff): LocalAddr identifies
	// this endpoint, DstAddr selects the switch egress for the next send.
	// Both default to zero, which leaves the header bytes exactly as the
	// single-link testbeds always wrote them — no fabric, no change.
	LocalAddr, DstAddr byte
	// RxSrc is the source address of the frame most recently delivered to
	// the recv handler; servers read it to address their reply.
	RxSrc byte

	// recv is invoked for each delivered payload, already placed in a
	// pinned RX buffer (the NIC DMA-writes received frames into pre-posted
	// DMA-safe buffers). The callee owns the buffer reference.
	recv func(payload *mem.Buf)

	// OnDrop, when set, is called for frames the RX path discards before
	// the handler sees them (runt frames, RX buffer exhaustion), with the
	// raw frame payload and a reason tag. The tracer uses it to annotate
	// the request a drop silenced; the payload must not be retained.
	OnDrop func(payload []byte, reason string)

	// Down marks the host as crashed: frames still arrive (the NIC and wire
	// do not know the host died) but the stack discards them, counted in
	// RxDownDrops — a dead node loses traffic loudly, never silently, so the
	// cluster frame ledger stays exact through a crash.
	Down        bool
	RxDownDrops uint64

	// RxBatched marks that the server above drains requests in bursts: the
	// poll-loop share of the per-packet RX cost (RxPollCy) is then charged
	// once per drained burst by the drainer, so onFrame charges only the
	// per-frame remainder. Leave false for one-request drains, which pay
	// the full RxPacketCy per frame.
	RxBatched bool

	// txOpen marks a TX batch (BeginTxBatch…EndTxBatch), and txPosted
	// counts the frames handed to the NIC inside it: post rings the
	// doorbell on the first frame of every MaxTxBurst chunk and posts the
	// rest behind it. txEntries is the gather-list scratch the send paths
	// build each frame in (safe to reuse: the NIC copies the list at post).
	txOpen    bool
	txPosted  int
	txEntries []nic.SGEntry
	// rel is the completion hook of every entry whose release is charged
	// here: CompletionCy plus the buffer's refcount line.
	rel releaser

	// Stats.
	TxPackets, RxPackets uint64
	TxZCEntries          uint64
	// TxNoMem counts sends that failed because the pinned pool could not
	// supply a transmit buffer; RxNoMem counts received frames dropped for
	// want of an RX buffer (the NIC would have overrun its posted ring).
	TxNoMem, RxNoMem uint64
	// TxFlushErrs counts the frames a TX batch failed to post: each one
	// the NIC refused between BeginTxBatch and EndTxBatch.
	TxFlushErrs uint64
}

// NewUDP attaches a UDP endpoint to a NIC port.
func NewUDP(eng *sim.Engine, port *nic.Port, alloc *mem.Allocator, meter *costmodel.Meter) *UDP {
	u := &UDP{Eng: eng, Port: port, Alloc: alloc, Meter: meter}
	u.rel = releaser{meter: meter, refcount: true}
	port.SetHandler(u.onFrame)
	return u
}

// SetRecvHandler installs the payload handler. The handler runs at frame
// delivery time; servers typically enqueue work onto a sim.Core from it.
func (u *UDP) SetRecvHandler(fn func(payload *mem.Buf)) { u.recv = fn }

// onFrame models the RX datapath: the NIC has DMA-written the frame into a
// pre-posted pinned buffer; the host poll loop pays the fixed per-packet RX
// cost and strips the packet header.
func (u *UDP) onFrame(f *nic.Frame) {
	if u.Down {
		// Crashed host: the frame reached the NIC but no software is alive
		// to poll it. No CPU is charged (there is no CPU), the buffer is
		// never allocated, and the loss is counted.
		u.RxDownDrops++
		if u.OnDrop != nil {
			u.OnDrop(f.Data, "host-down")
		}
		return
	}
	u.RxPackets++
	cy := u.Meter.CPU.RxPacketCy
	if u.RxBatched {
		// The poll-loop share is paid once per drained burst (see
		// RxBatched); only the per-frame remainder lands here.
		cy -= u.Meter.CPU.RxPollCy
	}
	u.Meter.Charge(cy)
	if len(f.Data) <= PacketHeaderLen {
		if u.OnDrop != nil {
			u.OnDrop(f.Data, "runt")
		}
		return // runt frame
	}
	u.RxSrc = f.Data[HdrSrcOff]
	payload := f.Data[PacketHeaderLen:]
	buf, err := u.Alloc.TryAlloc(len(payload))
	if err != nil {
		// No pinned buffer to DMA into: the frame is lost, exactly as a
		// real NIC drops when the posted RX ring is empty. Counted, never
		// silent — the transport (TCP-lite RTO, client retry) recovers.
		u.RxNoMem++
		if u.OnDrop != nil {
			u.OnDrop(payload, "rx-nomem")
		}
		return
	}
	copy(buf.Bytes(), payload) // DMA write: no CPU charge
	if u.recv == nil {
		buf.DecRef()
		return
	}
	u.recv(buf)
}

// Steer installs receive-side scaling on a port that sibling cores share:
// the NIC hands each frame to the stack of core HdrDstOff mod len(stacks),
// so every core receives, counts, drops and bills its frames in its own
// stack. A frame too short to carry the byte goes to the first stack,
// which discards it as a runt.
func Steer(port *nic.Port, stacks []*UDP) {
	port.SetHandler(func(f *nic.Frame) {
		i := 0
		if len(f.Data) > HdrDstOff {
			i = int(f.Data[HdrDstOff]) % len(stacks)
		}
		stacks[i].onFrame(f)
	})
}

// txPrep allocates a pinned transmit buffer with len(hdr)+n bytes after the
// packet header, and writes the packet header and then the frame header hdr
// (the RPC envelope), billed with one cache access. It fails with
// mem.ErrNoMem (counted in TxNoMem) when the pinned pool is exhausted.
func (u *UDP) txPrep(n int, hdr []byte) (*mem.Buf, error) {
	m := u.Meter
	front := PacketHeaderLen + len(hdr)
	buf, err := u.Alloc.TryAlloc(front + n)
	if err != nil {
		u.TxNoMem++
		return nil, err
	}
	m.Charge(m.CPU.DMABufAllocCy)
	u.writeHeader(buf.Bytes())
	copy(buf.Bytes()[PacketHeaderLen:], hdr)
	m.Charge(m.CPU.PktHeaderCy)
	m.Access(buf.SimAddr(), front)
	return buf, nil
}

// writeHeader writes the packet header into the first PacketHeaderLen
// bytes of frame, addressed from LocalAddr to DstAddr. It charges nothing:
// each caller bills the header its own way.
func (u *UDP) writeHeader(frame []byte) {
	hdr := frame[:PacketHeaderLen]
	clear(hdr)
	hdr[0] = 0x42 // marker: a real stack writes MACs/IPs/ports here
	hdr[HdrDstOff] = u.DstAddr
	hdr[HdrSrcOff] = u.LocalAddr
}

// postOne posts buf as a one-entry frame whose completion pays the
// metered release.
func (u *UDP) postOne(buf *mem.Buf) error {
	u.txEntries = append(u.txEntries[:0], nic.SGEntry{Data: buf.Bytes(), Sim: buf.SimAddr(), Rel: &u.rel, RelArg: buf})
	return u.post(u.txEntries)
}

// post hands the gather list to the NIC, charging the base descriptor cost
// plus one SGPost per entry beyond the first. On failure every entry's
// completion hook runs immediately so buffer references are not leaked.
//
// Inside a TX batch (BeginTxBatch…EndTxBatch) the frame posts at once as
// well, but only the first frame of each MaxTxBurst chunk rings the doorbell
// (Port.Send), the rest post behind it (Port.SendBehind), and the doorbell
// share of the descriptor cost waits for EndTxBatch, which charges it once
// per chunk. A frame the NIC refuses unwinds alone, counted in
// TxFlushErrs; later frames of the batch still post.
func (u *UDP) post(entries []nic.SGEntry) error {
	m := u.Meter
	if u.txOpen {
		m.Charge(m.CPU.TxDescCy - m.CPU.TxDoorbellCy)
	} else {
		m.Charge(m.CPU.TxDescCy)
	}
	for i := 1; i < len(entries); i++ {
		m.SGPost()
	}
	total := 0
	for _, e := range entries {
		total += len(e.Data)
	}
	var err error
	switch {
	case total > JumboFrame:
		err = &ErrTooLarge{Size: total}
	case !u.txOpen:
		err = u.Port.Send(entries)
	default:
		if u.txPosted%u.txBurst() == 0 {
			err = u.Port.Send(entries)
		} else {
			err = u.Port.SendBehind(entries)
		}
		u.txPosted++
		if err != nil {
			u.TxFlushErrs++
		}
	}
	if err != nil {
		// A refused post unwinds inline: the completion charges the release
		// hooks pay belong to the transmit attempt, not to whatever category
		// the serializer happened to leave active.
		prev := m.SetCategory(costmodel.CatTx)
		fireReleases(entries)
		m.SetCategory(prev)
		return err
	}
	u.TxPackets++
	u.TxZCEntries += uint64(len(entries) - 1)
	return nil
}

// fireReleases runs every completion hook of a gather list that will never
// reach the NIC — the unwind path of a refused or failed post.
func fireReleases(entries []nic.SGEntry) {
	for i := range entries {
		if e := &entries[i]; e.Rel != nil {
			e.Rel.ReleaseSG(e.RelArg)
		}
	}
}

// BeginTxBatch opens a TX batch: the frames posted until EndTxBatch share
// doorbells, one per MaxTxBurst chunk. The server's batch drainer brackets
// each drained burst with Begin/End.
func (u *UDP) BeginTxBatch() { u.txOpen = true }

// EndTxBatch closes the TX batch and charges the doorbell share the
// batch's posts withheld: one TxDoorbellCy per MaxTxBurst chunk of the
// frames handed to the NIC.
func (u *UDP) EndTxBatch() {
	burst := u.txBurst()
	chunks := (u.txPosted + burst - 1) / burst
	u.Meter.Charge(float64(chunks) * u.Meter.CPU.TxDoorbellCy)
	u.txOpen, u.txPosted = false, 0
}

// txBurst is how many frames of a TX batch share one doorbell: the NIC's
// MaxTxBurst, at least 1.
func (u *UDP) txBurst() int { return max(u.Port.Profile().MaxTxBurst, 1) }

// releaser is the DMA-completion hook of every gather entry the stacks
// post, with the entry's *mem.Buf as its RelArg: it drops the NIC's
// reference on the buffer. With a meter it first charges CompletionCy, and
// with refcount also touches the buffer's refcount line, the safety
// bookkeeping of §2.3. The zero releaser charges nothing: the raw
// scatter-gather upper bound (§2.4), and paths that amortize their
// completion share up front. A *releaser in an SGEntry's Rel is a plain
// pointer, so posting an entry allocates nothing.
type releaser struct {
	meter    *costmodel.Meter
	refcount bool
}

// ReleaseSG implements nic.SGReleaser.
func (r *releaser) ReleaseSG(arg any) {
	buf := arg.(*mem.Buf)
	if m := r.meter; m != nil {
		m.Charge(m.CPU.CompletionCy)
		if r.refcount {
			m.MetadataAccess(buf.RefcountSimAddr())
		}
	}
	buf.DecRef()
}

// rawRel releases with no metered cost.
var rawRel = &releaser{}

// SendObject is the combined serialize-and-send path (§3.2.3): the packet
// header, the frame header hdr (if any), the object header and the copied
// fields share the first scatter-gather entry; each zero-copy field adds
// one entry pointing directly at pinned application memory, with the
// refcount held until DMA completion.
func (u *UDP) SendObject(obj *core.Message, hdr ...byte) error {
	m := u.Meter
	l := obj.Layout()
	front := PacketHeaderLen + len(hdr)
	if front+l.ObjectLen() > JumboFrame {
		return &ErrTooLarge{Size: front + l.ObjectLen()}
	}

	// First entry: packet and frame headers + object header region +
	// copied data.
	first, err := u.txPrep(l.HeaderLen+l.CopyLen, hdr)
	if err != nil {
		return err
	}
	obj.WriteFront(l, first.Bytes()[front:], first.SimAddr()+uint64(front), m)

	entries := append(u.txEntries[:0], nic.SGEntry{
		Data:   first.Bytes(),
		Sim:    first.SimAddr(),
		Rel:    &u.rel,
		RelArg: first,
	})
	// Entries available for zero-copy data after the header entry; when the
	// object exceeds the hardware limit, reserve one slot for the
	// extension buffer that absorbs the overflow.
	zcCap := u.Port.Profile().MaxSGEntries - 1
	if l.NumZC > zcCap {
		zcCap--
	}
	var overflow []*mem.Buf
	taken := 0
	obj.IterateZCEntries(func(buf *mem.Buf) {
		if taken < zcCap {
			taken++
			// The NIC reads application memory asynchronously: it takes a
			// view of its own for the DMA, dropped at completion.
			m.MetadataAccess(buf.RefcountSimAddr())
			dma := buf.Clone()
			entries = append(entries, nic.SGEntry{
				Data:   dma.Bytes(),
				Sim:    dma.SimAddr(),
				Rel:    &u.rel,
				RelArg: dma,
			})
		} else {
			overflow = append(overflow, buf)
		}
	})
	if len(overflow) > 0 {
		// Hardware SG limit reached (e.g. Intel E810's 8 entries): copy the
		// remaining zero-copy fields into one extension buffer. Order is
		// preserved because overflow entries are the last in layout order.
		total := 0
		for _, b := range overflow {
			total += b.Len()
		}
		ext, err := u.Alloc.TryAlloc(total)
		if err != nil {
			// Release the references already taken for the built entries
			// before reporting failure — no refs may leak on this path, and
			// the unwind is billed to the transmit attempt.
			u.TxNoMem++
			prev := m.SetCategory(costmodel.CatTx)
			fireReleases(entries)
			m.SetCategory(prev)
			u.txEntries = entries[:0]
			return err
		}
		m.Charge(m.CPU.DMABufAllocCy)
		cur := 0
		for _, b := range overflow {
			m.Copy(b.SimAddr(), ext.SimAddr()+uint64(cur), b.Len())
			copy(ext.Bytes()[cur:], b.Bytes())
			cur += b.Len()
		}
		entries = append(entries, nic.SGEntry{
			Data:   ext.Bytes(),
			Sim:    ext.SimAddr(),
			Rel:    &u.rel,
			RelArg: ext,
		})
	}
	u.txEntries = entries[:0]
	return u.post(entries)
}

// SendObjectViaSGArray is the ablation path for Table 5: serialization and
// networking are independent layers, so the library materialises an
// intermediate scatter-gather array (header+copied data as its first
// element, zero-copy fields after), and the stack prepends its own packet
// header entry and re-walks the array. Costs: one vector allocation, one
// extra scatter-gather entry, and a second pass over the array.
func (u *UDP) SendObjectViaSGArray(obj *core.Message) error {
	m := u.Meter
	l := obj.Layout()
	if PacketHeaderLen+l.ObjectLen() > JumboFrame {
		return &ErrTooLarge{Size: PacketHeaderLen + l.ObjectLen()}
	}

	// --- Serialization layer: build the SG array. ---
	m.Charge(m.CPU.HeapAllocCy) // the intermediate array allocation
	type sge struct {
		data []byte
		sim  uint64
		buf  *mem.Buf
	}
	arr := make([]sge, 0, 1+l.NumZC)

	objBuf, err := u.Alloc.TryAlloc(l.HeaderLen + l.CopyLen)
	if err != nil {
		u.TxNoMem++
		return err
	}
	m.Charge(m.CPU.DMABufAllocCy)
	obj.WriteFront(l, objBuf.Bytes(), objBuf.SimAddr(), m)
	arr = append(arr, sge{data: objBuf.Bytes(), sim: objBuf.SimAddr(), buf: objBuf})
	obj.IterateZCEntries(func(buf *mem.Buf) {
		m.MetadataAccess(buf.RefcountSimAddr())
		dma := buf.Clone()
		arr = append(arr, sge{data: dma.Bytes(), sim: dma.SimAddr(), buf: dma})
	})

	// --- Networking layer: walk the array again, prepend header entry. ---
	hdrBuf, err := u.txPrep(0, nil)
	if err != nil {
		// Drop the views the serialization layer took into the array.
		for _, e := range arr {
			e.buf.DecRef()
		}
		return err
	}
	entries := append(u.txEntries[:0], nic.SGEntry{
		Data:   hdrBuf.Bytes(),
		Sim:    hdrBuf.SimAddr(),
		Rel:    &u.rel,
		RelArg: hdrBuf,
	})
	for i := range arr {
		e := arr[i]
		m.Charge(5) // per-element transform while re-walking the array
		entries = append(entries, nic.SGEntry{
			Data:   e.data,
			Sim:    e.sim,
			Rel:    &u.rel,
			RelArg: e.buf,
		})
	}
	m.Access(mem.UnpinnedSimAddr(objBuf.Bytes()), len(arr)*24) // array touch
	u.txEntries = entries[:0]
	if len(entries) > u.Port.Profile().MaxSGEntries {
		fireReleases(entries)
		return &nic.ErrTooManyEntries{Entries: len(entries), Max: u.Port.Profile().MaxSGEntries}
	}
	return u.post(entries)
}

// prebuiltBatch is the descriptor/completion amortization factor of the
// prebuilt-reply fast path: an overloaded server posts and reaps its
// rejection replies in batches, so the fixed per-packet NIC costs spread
// over the batch.
const prebuiltBatch = 16

// SendPrebuilt transmits a tiny prebuilt reply (an admission-control
// rejection) on the fast path an overload-hardened server must have:
// the reply lives in a ring of recycled template buffers whose packet
// headers are preformatted, and descriptor posting and completion reaping
// amortize across a batch. Only the payload copy plus the amortized share
// of the alloc/descriptor/completion costs hit the meter — shedding has to
// be far cheaper than serving, or admission control would be
// self-defeating at the load levels where it matters.
func (u *UDP) SendPrebuilt(payload []byte, sim uint64) error {
	m := u.Meter
	buf, err := u.Alloc.TryAlloc(PacketHeaderLen + len(payload))
	if err != nil {
		u.TxNoMem++
		return err
	}
	u.writeHeader(buf.Bytes())
	m.Charge((m.CPU.DMABufAllocCy + m.CPU.TxDescCy + m.CPU.CompletionCy) / prebuiltBatch)
	m.Copy(sim, buf.SimAddr()+PacketHeaderLen, len(payload))
	copy(buf.Bytes()[PacketHeaderLen:], payload)
	// Completion cost amortized above, so the raw (uncharged) releaser.
	u.txEntries = append(u.txEntries[:0], nic.SGEntry{
		Data: buf.Bytes(), Sim: buf.SimAddr(), Rel: rawRel, RelArg: buf,
	})
	err = u.Port.Send(u.txEntries)
	if err != nil {
		buf.DecRef()
		return err
	}
	u.TxPackets++
	return nil
}

// SendContiguous transmits an already-serialized contiguous payload by
// copying it into a DMA buffer (the FlatBuffers and Redis datapath:
// "FlatBuffers and Redis use a contiguous buffer", §6.1.3): a one-segment
// SendSegments.
func (u *UDP) SendContiguous(payload []byte, sim uint64) error {
	return u.SendSegments([][]byte{payload}, []uint64{sim})
}

// SendWith allocates a DMA buffer of the given payload size and lets fill
// serialize directly into it, behind the frame header hdr (the Protobuf
// datapath: "Protobuf serializes from Protobuf structs into DMA-safe memory
// directly", §6.1.3). fill returns the actual payload length.
func (u *UDP) SendWith(size int, fill func(dst []byte, dstSim uint64) int, hdr ...byte) error {
	buf, err := u.txPrep(size, hdr)
	if err != nil {
		return err
	}
	front := PacketHeaderLen + len(hdr)
	n := fill(buf.Bytes()[front:], buf.SimAddr()+uint64(front))
	if n < size {
		buf.Resize(front + n)
	}
	return u.postOne(buf)
}

// SendSegments copies a list of segments into one DMA buffer, behind the
// frame header hdr (the Cap'n Proto datapath: "a non-contiguous list of
// buffers that represent the object", §6.1.3).
func (u *UDP) SendSegments(segs [][]byte, sims []uint64, hdr ...byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	buf, err := u.txPrep(total, hdr)
	if err != nil {
		return err
	}
	cur := PacketHeaderLen + len(hdr)
	for i, s := range segs {
		u.Meter.Copy(sims[i], buf.SimAddr()+uint64(cur), len(s))
		copy(buf.Bytes()[cur:], s)
		cur += len(s)
	}
	return u.postOne(buf)
}

// SendPinned transmits pinned buffers zero-copy, one SG entry each, after a
// header entry holding the packet header and the frame header hdr. With
// safe=true it performs (and charges) the full memory-safety protocol:
// registry lookup, refcount increment now, metered decrement at
// completion. With safe=false it models the "raw scatter-gather" upper
// bound of §2.4: the buffers are still held until DMA completes (that is
// physics, not software), but none of the software bookkeeping is
// charged. The header entry pays its completion either way. The NIC holds
// a view of its own on each buffer, so the caller's views are untouched.
func (u *UDP) SendPinned(bufs []*mem.Buf, safe bool, hdr ...byte) error {
	m := u.Meter
	hdrBuf, err := u.txPrep(0, hdr)
	if err != nil {
		return err
	}
	entries := append(u.txEntries[:0],
		nic.SGEntry{Data: hdrBuf.Bytes(), Sim: hdrBuf.SimAddr(), Rel: &u.rel, RelArg: hdrBuf})
	for _, b := range bufs {
		dma := b.Clone()
		e := nic.SGEntry{Data: dma.Bytes(), Sim: dma.SimAddr(), RelArg: dma}
		if safe {
			m.Charge(m.CPU.RegistryLookupCy)
			m.MetadataAccess(b.RefcountSimAddr())
			e.Rel = &u.rel
		} else {
			e.Rel = rawRel // uncharged: raw upper bound
		}
		entries = append(entries, e)
	}
	u.txEntries = entries[:0]
	return u.post(entries)
}
