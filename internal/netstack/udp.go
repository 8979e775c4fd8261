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
	// per-frame remainder. Leave false for the unbatched datapath, which
	// keeps the full legacy RxPacketCy per frame.
	RxBatched bool

	// txOpen/txStore/txLens implement TX batching: between BeginTxBatch and
	// FlushTx, post() copies gather lists into the flat txStore (frame i
	// owns txLens[i] consecutive entries) instead of handing each to the
	// NIC, and FlushTx posts them all through Port.SendBatch under
	// amortized doorbells. The flat store means queued frames never alias
	// the caller's (reused) entry scratch, and the batch costs zero
	// allocations once the store has grown to the burst high-water mark.
	txOpen  bool
	txStore []nic.SGEntry
	txLens  []int
	// txFrames is FlushTx's scratch for the per-frame subslice headers
	// SendBatch consumes; txEntries is the gather-list scratch the send
	// paths build each frame in (safe to reuse: the NIC copies the list at
	// post time, and batched posts copy it into txStore).
	txFrames  [][]nic.SGEntry
	txEntries []nic.SGEntry

	// Stats.
	TxPackets, RxPackets uint64
	TxZCEntries          uint64
	// TxNoMem counts sends that failed because the pinned pool could not
	// supply a transmit buffer; RxNoMem counts received frames dropped for
	// want of an RX buffer (the NIC would have overrun its posted ring).
	TxNoMem, RxNoMem uint64
	// TxFlushErrs counts frames unwound because a batched flush failed
	// partway (each unposted frame of the failing flush counts once).
	TxFlushErrs uint64
}

// NewUDP attaches a UDP endpoint to a NIC port.
func NewUDP(eng *sim.Engine, port *nic.Port, alloc *mem.Allocator, meter *costmodel.Meter) *UDP {
	u := &UDP{Eng: eng, Port: port, Alloc: alloc, Meter: meter}
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

// txPrep allocates a pinned transmit buffer with n bytes after the packet
// header and writes the header. It fails with mem.ErrNoMem (counted in
// TxNoMem) when the pinned pool is exhausted.
func (u *UDP) txPrep(n int) (*mem.Buf, error) {
	m := u.Meter
	buf, err := u.Alloc.TryAlloc(PacketHeaderLen + n)
	if err != nil {
		u.TxNoMem++
		return nil, err
	}
	m.Charge(m.CPU.DMABufAllocCy)
	hdr := buf.Bytes()[:PacketHeaderLen]
	for i := range hdr {
		hdr[i] = 0
	}
	hdr[0] = 0x42 // marker: a real stack writes MACs/IPs/ports here
	hdr[HdrDstOff] = u.DstAddr
	hdr[HdrSrcOff] = u.LocalAddr
	m.Charge(m.CPU.PktHeaderCy)
	m.Access(buf.SimAddr(), PacketHeaderLen)
	return buf, nil
}

// post hands the gather list to the NIC, charging the base descriptor cost
// plus one SGPost per entry beyond the first. On failure every entry's
// Release hook runs immediately so buffer references are not leaked.
//
// Inside a TX batch (BeginTxBatch…FlushTx) the gather list is queued
// instead of posted: the doorbell share of the descriptor cost is deferred
// to the flush (where it amortizes per chunk), size/entry-limit violations
// are still detected — and unwound — here at queue time, and
// TxPackets/TxZCEntries are counted at flush for frames actually posted.
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
	err := error(nil)
	switch {
	case total > JumboFrame:
		err = &ErrTooLarge{Size: total}
	case u.txOpen && len(entries) > u.Port.Profile().MaxSGEntries:
		// Validate at queue time what Port.Send would reject, so a bad
		// frame fails its own post instead of poisoning the whole flush.
		err = &nic.ErrTooManyEntries{Entries: len(entries), Max: u.Port.Profile().MaxSGEntries}
	case u.txOpen:
		u.txStore = append(u.txStore, entries...)
		u.txLens = append(u.txLens, len(entries))
		return nil
	default:
		err = u.Port.Send(entries)
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
		e := &entries[i]
		if e.Release != nil {
			e.Release()
		}
		if e.Rel != nil {
			e.Rel.ReleaseSG(e.RelArg)
		}
	}
}

// BeginTxBatch opens a TX batch: subsequent post()s queue their gather
// lists until FlushTx. The server's batch drainer brackets each drained
// burst with Begin/Flush so all replies of the burst share doorbells.
func (u *UDP) BeginTxBatch() { u.txOpen = true }

// FlushTx closes the TX batch and posts the queued frames through
// Port.SendBatch, charging one TxDoorbellCy per MaxTxBurst chunk — the
// deferred doorbell share of the descriptor costs post() withheld. On a
// mid-batch send failure the remaining frames are unwound (references
// released under CatTx, counted in TxFlushErrs) and the error returned;
// frames already posted stay posted.
func (u *UDP) FlushTx() error {
	u.txOpen = false
	if len(u.txLens) == 0 {
		return nil
	}
	m := u.Meter
	// Rebuild the per-frame views over the flat store. The subslice headers
	// live in the reused txFrames scratch; the store itself is stable for
	// the duration of the flush (nothing appends mid-SendBatch).
	frames := u.txFrames[:0]
	off := 0
	for _, n := range u.txLens {
		frames = append(frames, u.txStore[off:off+n:off+n])
		off += n
	}
	burst := u.Port.Profile().MaxTxBurst
	if burst < 1 {
		burst = 1
	}
	chunks := (len(frames) + burst - 1) / burst
	m.Charge(float64(chunks) * m.CPU.TxDoorbellCy)
	posted, err := u.Port.SendBatch(frames)
	for i := 0; i < posted; i++ {
		u.TxPackets++
		u.TxZCEntries += uint64(len(frames[i]) - 1)
	}
	if err != nil {
		prev := m.SetCategory(costmodel.CatTx)
		for _, f := range frames[posted:] {
			u.TxFlushErrs++
			fireReleases(f)
		}
		m.SetCategory(prev)
	}
	// Drop the stored buffer references so the scratch arrays do not pin
	// DMA buffers past the flush.
	clear(u.txStore)
	u.txStore = u.txStore[:0]
	u.txLens = u.txLens[:0]
	clear(frames)
	u.txFrames = frames[:0]
	return err
}

// ReleaseSG implements nic.SGReleaser: the NIC calls it at DMA completion
// for every entry posted with Rel=u, RelArg=buf. It pays the completion
// cost and drops the buffer reference — the same hook releaseBuf used to
// close over, without the per-entry closure allocation (a *mem.Buf in an
// `any` is a plain pointer store).
func (u *UDP) ReleaseSG(arg any) {
	buf := arg.(*mem.Buf)
	m := u.Meter
	m.Charge(m.CPU.CompletionCy)
	m.MetadataAccess(buf.RefcountSimAddr())
	buf.DecRef()
}

// rawReleaser drops a buffer reference with no metered cost: the prebuilt
// fast path amortizes its completion share up front, and the raw
// scatter-gather upper bound (§2.4) charges no bookkeeping at all.
type rawReleaser struct{}

func (rawReleaser) ReleaseSG(arg any) { arg.(*mem.Buf).DecRef() }

var rawRel rawReleaser

// SendObject is the combined serialize-and-send path (§3.2.3): the packet
// header, object header and copied fields share the first scatter-gather
// entry; each zero-copy field adds one entry pointing directly at pinned
// application memory, with the refcount held until DMA completion.
func (u *UDP) SendObject(obj *core.Message) error {
	m := u.Meter
	l := obj.Layout()
	if PacketHeaderLen+l.ObjectLen() > JumboFrame {
		return &ErrTooLarge{Size: PacketHeaderLen + l.ObjectLen()}
	}

	// First entry: packet header + object header region + copied data.
	first, err := u.txPrep(l.HeaderLen + l.CopyLen)
	if err != nil {
		return err
	}
	dst := first.Bytes()[PacketHeaderLen:]
	obj.WriteHeader(dst)
	m.Charge(float64(l.Fields)*m.CPU.PerFieldCy + float64(l.Elems)*2)
	m.Access(first.SimAddr()+PacketHeaderLen, l.HeaderLen)

	cur := l.HeaderLen
	obj.IterateCopyEntries(func(data []byte, sim uint64) {
		// The second copy of the copied path: arena → DMA buffer, cheap
		// because the source was just written (§2.2, §3.2.2).
		m.Copy(sim, first.SimAddr()+uint64(PacketHeaderLen+cur), len(data))
		copy(dst[cur:], data)
		cur += len(data)
	})

	entries := append(u.txEntries[:0], nic.SGEntry{
		Data:   first.Bytes(),
		Sim:    first.SimAddr(),
		Rel:    u,
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
			// The NIC reads application memory asynchronously: take a
			// reference on behalf of the DMA, released at completion.
			m.MetadataAccess(buf.RefcountSimAddr())
			buf.IncRef()
			entries = append(entries, nic.SGEntry{
				Data:   buf.Bytes(),
				Sim:    buf.SimAddr(),
				Rel:    u,
				RelArg: buf,
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
			Rel:    u,
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
	obj.WriteHeader(objBuf.Bytes())
	m.Charge(float64(l.Fields)*m.CPU.PerFieldCy + float64(l.Elems)*2)
	m.Access(objBuf.SimAddr(), l.HeaderLen)
	cur := l.HeaderLen
	obj.IterateCopyEntries(func(data []byte, sim uint64) {
		m.Copy(sim, objBuf.SimAddr()+uint64(cur), len(data))
		copy(objBuf.Bytes()[cur:], data)
		cur += len(data)
	})
	arr = append(arr, sge{data: objBuf.Bytes(), sim: objBuf.SimAddr(), buf: objBuf})
	obj.IterateZCEntries(func(buf *mem.Buf) {
		m.MetadataAccess(buf.RefcountSimAddr())
		buf.IncRef()
		arr = append(arr, sge{data: buf.Bytes(), sim: buf.SimAddr(), buf: buf})
	})

	// --- Networking layer: walk the array again, prepend header entry. ---
	hdrBuf, err := u.txPrep(0)
	if err != nil {
		// Drop the references the serialization layer took into the array.
		for _, e := range arr {
			e.buf.DecRef()
		}
		return err
	}
	entries := append(u.txEntries[:0], nic.SGEntry{
		Data:   hdrBuf.Bytes(),
		Sim:    hdrBuf.SimAddr(),
		Rel:    u,
		RelArg: hdrBuf,
	})
	for i := range arr {
		e := arr[i]
		m.Charge(5) // per-element transform while re-walking the array
		entries = append(entries, nic.SGEntry{
			Data:   e.data,
			Sim:    e.sim,
			Rel:    u,
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
	hdr := buf.Bytes()[:PacketHeaderLen]
	for i := range hdr {
		hdr[i] = 0
	}
	hdr[0] = 0x42
	hdr[HdrDstOff] = u.DstAddr
	hdr[HdrSrcOff] = u.LocalAddr
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
// "FlatBuffers and Redis use a contiguous buffer", §6.1.3).
func (u *UDP) SendContiguous(payload []byte, sim uint64) error {
	buf, err := u.txPrep(len(payload))
	if err != nil {
		return err
	}
	u.Meter.Copy(sim, buf.SimAddr()+PacketHeaderLen, len(payload))
	copy(buf.Bytes()[PacketHeaderLen:], payload)
	u.txEntries = append(u.txEntries[:0], nic.SGEntry{Data: buf.Bytes(), Sim: buf.SimAddr(), Rel: u, RelArg: buf})
	return u.post(u.txEntries)
}

// SendWith allocates a DMA buffer of the given payload size and lets fill
// serialize directly into it (the Protobuf datapath: "Protobuf serializes
// from Protobuf structs into DMA-safe memory directly", §6.1.3). fill
// returns the actual payload length.
func (u *UDP) SendWith(size int, fill func(dst []byte, dstSim uint64) int) error {
	buf, err := u.txPrep(size)
	if err != nil {
		return err
	}
	n := fill(buf.Bytes()[PacketHeaderLen:], buf.SimAddr()+PacketHeaderLen)
	if n < size {
		buf.Resize(PacketHeaderLen + n)
	}
	u.txEntries = append(u.txEntries[:0], nic.SGEntry{Data: buf.Bytes(), Sim: buf.SimAddr(), Rel: u, RelArg: buf})
	return u.post(u.txEntries)
}

// SendSegments copies a list of segments into one DMA buffer (the Cap'n
// Proto datapath: "a non-contiguous list of buffers that represent the
// object", §6.1.3).
func (u *UDP) SendSegments(segs [][]byte, sims []uint64) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	buf, err := u.txPrep(total)
	if err != nil {
		return err
	}
	cur := PacketHeaderLen
	for i, s := range segs {
		u.Meter.Copy(sims[i], buf.SimAddr()+uint64(cur), len(s))
		copy(buf.Bytes()[cur:], s)
		cur += len(s)
	}
	u.txEntries = append(u.txEntries[:0], nic.SGEntry{Data: buf.Bytes(), Sim: buf.SimAddr(), Rel: u, RelArg: buf})
	return u.post(u.txEntries)
}

// SendPinned transmits pinned buffers zero-copy, one SG entry each, after a
// header entry. With safe=true it performs (and charges) the full
// memory-safety protocol: registry lookup, refcount increment now,
// metered decrement at completion. With safe=false it models the "raw
// scatter-gather" upper bound of §2.4: the buffers are still held until
// DMA completes (that is physics, not software), but none of the software
// bookkeeping is charged. The caller's own references are untouched.
func (u *UDP) SendPinned(bufs []*mem.Buf, safe bool) error {
	m := u.Meter
	hdrBuf, err := u.txPrep(0)
	if err != nil {
		return err
	}
	entries := append(u.txEntries[:0],
		nic.SGEntry{Data: hdrBuf.Bytes(), Sim: hdrBuf.SimAddr(), Rel: u, RelArg: hdrBuf})
	for _, b := range bufs {
		e := nic.SGEntry{Data: b.Bytes(), Sim: b.SimAddr(), RelArg: b}
		b.IncRef()
		if safe {
			m.Charge(m.CPU.RegistryLookupCy)
			m.MetadataAccess(b.RefcountSimAddr())
			e.Rel = u
		} else {
			e.Rel = rawRel // uncharged: raw upper bound
		}
		entries = append(entries, e)
	}
	u.txEntries = entries[:0]
	return u.post(entries)
}
