package netstack

import (
	"fmt"

	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
)

// TCPHeaderLen is Ethernet (14) + IPv4 (20) + TCP (20).
const TCPHeaderLen = 54

// TCP header field offsets within the frame (the rest of the 54 bytes model
// the usual MAC/IP fields).
const (
	tcpOffSeq   = 42
	tcpOffAck   = 46
	tcpOffFlags = 50
	flagData    = 1
	flagAck     = 2
)

// defaultRTO is the initial retransmission timeout. Datacenter RTTs here
// are a few microseconds, so a fixed small RTO with exponential backoff is
// adequate for the echo experiments and loss tests.
const defaultRTO = 100 * sim.Microsecond

// maxRTO caps the exponential backoff. Without a cap, a loss burst of k
// frames pushes the next retransmit out by defaultRTO·2^k — tens of
// virtual seconds after a dozen losses — so a connection that could
// recover in microseconds appears stalled. 1.6 ms is 4 doublings: deep
// enough to shed load under persistent loss, shallow enough that recovery
// after a burst is prompt.
const maxRTO = 1600 * sim.Microsecond

// Retransmission state machine (RTO arm / re-arm / cancel rules)
//
// The connection keeps go-back-N state: unacked[0] is the oldest
// unacknowledged segment and the only one the timer ever retransmits.
// The RTO timer obeys four rules:
//
//  1. Arm: armRTO schedules onRTO after the current backoff iff no timer
//     is pending and at least one segment is unacked. It is called after
//     every successful first transmission and after every cumulative-ack
//     advance.
//  2. Fire: onRTO retransmits unacked[0], doubles the backoff (capped at
//     maxRTO), and ALWAYS re-arms — even when the retransmit itself fails
//     (NIC TX ring full, gather-list overflow). A failed retransmit is
//     indistinguishable from a lost one; the next timeout retries it.
//     Re-arming only on success (the pre-fix behaviour) deadlocks the
//     connection: no timer, no future transmission, unacked forever.
//  3. Cancel + re-arm: when a cumulative ack advances sendUna, the backoff
//     resets to defaultRTO, the pending timer (timing the old oldest
//     segment) is cancelled, and armRTO starts a fresh timer iff segments
//     remain in flight.
//  4. Drain: when the last segment is acked, rule 3's armRTO finds
//     unacked empty and leaves the timer off — an idle connection
//     schedules no events, letting the simulation drain.

// segment is one in-flight TCP segment retained for retransmission.
type segment struct {
	seq    uint32
	length int
	// first is the DMA buffer holding packet header + object header +
	// copied data; zc are the zero-copy application buffers. The
	// connection holds one reference on each until the segment is
	// cumulatively acknowledged — this is the "transmission (and potential
	// re-transmission)" extension of the use-after-free guarantee (§3).
	first *mem.Buf
	zc    []*mem.Buf
}

// TCPConn is one endpoint of a TCP-lite connection (a limited integration
// in the spirit of the paper's Demikernel TCP port, §4). Segments carry
// whole messages: one SendObject produces one segment, and in-order
// delivery hands each segment's payload to the receive handler. Go-back-N:
// out-of-order segments are dropped and recovered by retransmission.
type TCPConn struct {
	Eng   *sim.Engine
	Port  *nic.Port
	Alloc *mem.Allocator
	Meter *costmodel.Meter

	sendSeq  uint32
	sendUna  uint32
	recvSeq  uint32
	unacked  []*segment
	rto      sim.Time
	rtoTimer sim.Timer
	// free holds acknowledged segments for reuse, and rtoFn is onRTO
	// bound once (a method value allocates on every use), so a steady
	// send/ack loop allocates nothing.
	free  []*segment
	rtoFn func()

	recv func(payload *mem.Buf)

	// Completion hooks: a segment's header+copy buffer pays CompletionCy,
	// each zero-copy buffer also its refcount line. txEntries is
	// transmit's gather-list scratch (the NIC copies the list at post).
	firstRel, zcRel releaser
	txEntries       []nic.SGEntry

	// Stats.
	TxSegments, RxSegments uint64
	Retransmits            uint64
	DupAcks                uint64
	// RtxSendErrors counts retransmission attempts the NIC refused; the
	// segment stays queued and the next RTO retries it.
	RtxSendErrors uint64
	// AckSendErrors counts ACK frames the NIC refused to post. The ACK is
	// simply not sent — the peer's retransmission will solicit another.
	AckSendErrors uint64
	// EmptyDataSegs counts received data-flagged segments with a
	// zero-length payload, which are dropped: they carry no sequence space
	// and a zero-byte RX buffer has no slot identity to deliver.
	EmptyDataSegs uint64
	// TxNoMem counts sends refused because the pinned pool could not
	// supply the segment's first DMA buffer; RxNoMem counts in-order data
	// segments dropped (without advancing recvSeq or acknowledging) for
	// want of an RX buffer — the peer's RTO retransmits them.
	TxNoMem, RxNoMem uint64
}

// NewTCPConn attaches a TCP endpoint to a NIC port. Both ends of a link
// must run TCP; the connection is modelled as pre-established.
func NewTCPConn(eng *sim.Engine, port *nic.Port, alloc *mem.Allocator, meter *costmodel.Meter) *TCPConn {
	c := &TCPConn{Eng: eng, Port: port, Alloc: alloc, Meter: meter, rto: defaultRTO}
	c.firstRel = releaser{meter: meter}
	c.zcRel = releaser{meter: meter, refcount: true}
	c.rtoFn = c.onRTO
	port.SetHandler(c.onFrame)
	return c
}

// SetRecvHandler installs the message payload handler (payload in a pinned
// RX buffer owned by the callee).
func (c *TCPConn) SetRecvHandler(fn func(payload *mem.Buf)) { c.recv = fn }

func (c *TCPConn) writeTCPHeader(hdr []byte, seq, ack uint32, flags byte) {
	for i := range hdr[:TCPHeaderLen] {
		hdr[i] = 0
	}
	hdr[0] = 0x42
	wire.PutU32(hdr[tcpOffSeq:], seq)
	wire.PutU32(hdr[tcpOffAck:], ack)
	hdr[tcpOffFlags] = flags
	c.Meter.Charge(c.Meter.CPU.PktHeaderCy + 10) // +seq/ack state updates
}

// SendObject serializes obj into one TCP segment using the same combined
// serialize-and-send layout as the UDP stack, and retains buffer references
// until the segment is acknowledged. It writes no frame header: a
// non-empty hdr fails.
func (c *TCPConn) SendObject(obj *core.Message, hdr ...byte) error {
	if len(hdr) > 0 {
		return errFrameHeader
	}
	m := c.Meter
	l := obj.Layout()
	if TCPHeaderLen+l.ObjectLen() > JumboFrame {
		return &ErrTooLarge{Size: TCPHeaderLen + l.ObjectLen()}
	}

	first, err := c.prepFirst(l.HeaderLen + l.CopyLen)
	if err != nil {
		return err
	}
	obj.WriteFront(l, first.Bytes()[TCPHeaderLen:], first.SimAddr()+TCPHeaderLen, m)

	seg := c.newSegment(l.ObjectLen(), first)
	obj.IterateZCEntries(func(buf *mem.Buf) {
		// One reference for retransmission retention...
		m.MetadataAccess(buf.RefcountSimAddr())
		buf.IncRef()
		seg.zc = append(seg.zc, buf)
	})
	return c.enqueue(seg)
}

// prepFirst allocates a segment's first DMA buffer with n bytes after the
// TCP header and writes the header at the next sequence number. Failing
// here is clean: no sequence space consumed, no references taken — the
// caller sees the error before anything is queued.
func (c *TCPConn) prepFirst(n int) (*mem.Buf, error) {
	m := c.Meter
	first, err := c.Alloc.TryAlloc(TCPHeaderLen + n)
	if err != nil {
		c.TxNoMem++
		return nil, err
	}
	m.Charge(m.CPU.DMABufAllocCy)
	c.writeTCPHeader(first.Bytes(), c.sendSeq, c.recvSeq, flagData|flagAck)
	m.Access(first.SimAddr(), TCPHeaderLen)
	return first, nil
}

// newSegment returns a segment of length bytes at the next sequence
// number, whose first DMA buffer is first, reusing an acknowledged one
// when there is one.
func (c *TCPConn) newSegment(length int, first *mem.Buf) *segment {
	var seg *segment
	if n := len(c.free); n > 0 {
		seg = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		seg = &segment{}
	}
	seg.seq, seg.length, seg.first = c.sendSeq, length, first
	return seg
}

// recycle returns a segment whose references are dropped to the free
// list, keeping its zc array for the next segment.
func (c *TCPConn) recycle(seg *segment) {
	clear(seg.zc)
	*seg = segment{zc: seg.zc[:0]}
	c.free = append(c.free, seg)
}

// enqueue consumes seg's sequence space, queues it for retransmission and
// sends it, rolling both back when the NIC refuses the first transmission.
func (c *TCPConn) enqueue(seg *segment) error {
	c.sendSeq += uint32(seg.length)
	c.unacked = append(c.unacked, seg)
	c.TxSegments++
	if err := c.transmit(seg); err != nil {
		c.rollback(seg)
		return err
	}
	c.armRTO()
	return nil
}

// rollback removes a just-queued segment whose first transmission the NIC
// rejected, releasing the retention references and restoring the sequence
// space.
func (c *TCPConn) rollback(seg *segment) {
	c.unacked = c.unacked[:len(c.unacked)-1]
	c.sendSeq = seg.seq
	seg.first.DecRef()
	for _, b := range seg.zc {
		b.DecRef()
	}
	c.recycle(seg)
	c.TxSegments--
}

// SendContiguous sends an already-serialized payload over the connection
// (used by the FlatBuffers echo baseline in Figure 9).
func (c *TCPConn) SendContiguous(payload []byte, sim uint64) error {
	first, err := c.prepFirst(len(payload))
	if err != nil {
		return err
	}
	c.Meter.Copy(sim, first.SimAddr()+TCPHeaderLen, len(payload))
	copy(first.Bytes()[TCPHeaderLen:], payload)
	return c.enqueue(c.newSegment(len(payload), first))
}

// transmit posts one segment to the NIC, taking per-post references for the
// DMA engine.
func (c *TCPConn) transmit(seg *segment) error {
	m := c.Meter
	m.Charge(m.CPU.TxDescCy)
	seg.first.IncRef() // NIC's reference on the header+copy buffer
	entries := append(c.txEntries[:0], nic.SGEntry{
		Data: seg.first.Bytes(), Sim: seg.first.SimAddr(), Rel: &c.firstRel, RelArg: seg.first,
	})
	for _, b := range seg.zc {
		m.SGPost()
		b.IncRef() // NIC's reference
		entries = append(entries, nic.SGEntry{Data: b.Bytes(), Sim: b.SimAddr(), Rel: &c.zcRel, RelArg: b})
	}
	c.txEntries = entries[:0]
	if err := c.Port.Send(entries); err != nil {
		// Undo the per-post NIC references: the hardware never saw them.
		seg.first.DecRef()
		for _, b := range seg.zc {
			b.DecRef()
		}
		return err
	}
	return nil
}

func (c *TCPConn) armRTO() {
	if c.rtoTimer.Pending() || len(c.unacked) == 0 {
		return
	}
	c.rtoTimer = c.Eng.After(c.rto, c.rtoFn)
}

func (c *TCPConn) onRTO() {
	if len(c.unacked) == 0 {
		return
	}
	// Go-back-N: retransmit the oldest unacked segment; its buffers are
	// still alive because the connection held references.
	c.Retransmits++
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	if err := c.transmit(c.unacked[0]); err != nil {
		c.RtxSendErrors++
	}
	// Re-arm unconditionally (rule 2): a refused post must be retried at
	// the next timeout, not abandoned with the segment stuck in flight.
	c.rtoTimer = c.Eng.After(c.rto, c.rtoFn)
}

// sendAck emits a header-only ACK frame. ACKs are fire-and-forget: if the
// NIC refuses the post, the buffer's reference is dropped here (a refused
// post never runs the completion hook) and the peer's retransmission will
// solicit a fresh ACK.
func (c *TCPConn) sendAck() {
	m := c.Meter
	buf, err := c.Alloc.TryAlloc(TCPHeaderLen)
	if err != nil {
		// No buffer for the ACK: skip it. Fire-and-forget semantics make
		// this safe — the peer retransmits and solicits another ACK once
		// pressure subsides.
		c.AckSendErrors++
		return
	}
	m.Charge(m.CPU.DMABufAllocCy)
	c.writeTCPHeader(buf.Bytes(), c.sendSeq, c.recvSeq, flagAck)
	m.Charge(m.CPU.TxDescCy)
	c.txEntries = append(c.txEntries[:0], nic.SGEntry{Data: buf.Bytes(), Sim: buf.SimAddr(), Rel: rawRel, RelArg: buf})
	err = c.Port.Send(c.txEntries)
	if err != nil {
		c.AckSendErrors++
		buf.DecRef()
	}
}

func (c *TCPConn) onFrame(f *nic.Frame) {
	m := c.Meter
	m.Charge(m.CPU.RxPacketCy)
	if len(f.Data) < TCPHeaderLen {
		return
	}
	seq := wire.GetU32(f.Data[tcpOffSeq:])
	ack := wire.GetU32(f.Data[tcpOffAck:])
	flags := f.Data[tcpOffFlags]

	if flags&flagAck != 0 {
		c.processAck(ack)
	}
	if flags&flagData == 0 {
		return
	}
	payload := f.Data[TCPHeaderLen:]
	if len(payload) == 0 {
		// A data-flagged segment with no payload consumes no sequence
		// space and has nothing to deliver (a zero-byte pinned RX buffer
		// has no slot identity); drop it. Its ACK field was processed
		// above, so a corrupted or degenerate peer cannot stall us.
		c.EmptyDataSegs++
		return
	}
	switch {
	case seq == c.recvSeq:
		buf, err := c.Alloc.TryAlloc(len(payload))
		if err != nil {
			// No RX buffer: the segment is effectively lost at the ring.
			// Critically, recvSeq does NOT advance and no ACK is sent, so
			// the peer's RTO retransmits into (hopefully) freed memory.
			c.RxNoMem++
			return
		}
		c.recvSeq += uint32(len(payload))
		c.RxSegments++
		copy(buf.Bytes(), payload) // DMA write
		c.sendAck()
		if c.recv != nil {
			c.recv(buf)
		} else {
			buf.DecRef()
		}
	default:
		// Duplicate or out-of-order: drop and re-advertise our position.
		c.DupAcks++
		c.sendAck()
	}
}

// processAck releases segments fully covered by the cumulative ack.
func (c *TCPConn) processAck(ack uint32) {
	m := c.Meter
	acked := 0
	for _, seg := range c.unacked {
		if int32(ack-seg.seq) < int32(seg.length) {
			break
		}
		// Fully acknowledged: drop the retention references. Only now can
		// the application's data truly be freed.
		m.Charge(m.CPU.CompletionCy)
		seg.first.DecRef()
		for _, b := range seg.zc {
			m.MetadataAccess(b.RefcountSimAddr())
			b.DecRef()
		}
		c.sendUna = seg.seq + uint32(seg.length)
		c.recycle(seg)
		acked++
	}
	if acked > 0 {
		// Shift the survivors to the front rather than slicing the head
		// off, so the queue keeps its one backing array.
		n := copy(c.unacked, c.unacked[acked:])
		clear(c.unacked[n:])
		c.unacked = c.unacked[:n]
		c.rto = defaultRTO
		c.rtoTimer.Cancel()
		c.armRTO()
	}
}

// Unacked returns the number of in-flight segments (for tests).
func (c *TCPConn) Unacked() int { return len(c.unacked) }

// String summarises connection state.
func (c *TCPConn) String() string {
	return fmt.Sprintf("tcp{seq=%d una=%d rcv=%d inflight=%d rtx=%d}",
		c.sendSeq, c.sendUna, c.recvSeq, len(c.unacked), c.Retransmits)
}
