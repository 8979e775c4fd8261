package netstack

import (
	"fmt"

	"cornflakes/internal/core"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/wire"
)

// Segmentation: the paper's prototype sends only single-jumbo-frame
// objects, but §3.2.3 sketches the extension — "the copy and zero-copy
// iterators could take in start and end offsets so they only operate on
// entries within the specified range; the networking stack could call the
// iterators for each message frame until the entire object has been
// written". This file implements that extension.
//
// Segmenter.SendObject serializes an object of any size across multiple
// frames. The first fragment carries the object header region and copied
// fields in the DMA buffer; zero-copy fields are posted as scatter-gather
// entries, sliced at frame boundaries with refcounted sub-views — so even
// a multi-megabyte pinned value crosses the wire without a single CPU
// copy. Each fragment is prefixed by a 16-byte fragment header:
//
//	u64 message id | u16 fragment index | u16 fragment count | u32 total object bytes
//
// The receiving stack reassembles fragments (NIC DMA writes them into
// place in a single pinned buffer) and delivers the complete object to the
// normal receive handler, so applications are oblivious to segmentation.
// UDP gives no delivery guarantee: losing any fragment discards the
// message (stale partial messages are evicted LRU-style).
const FragHeaderLen = 16

// fragKey identifies an in-progress reassembly.
type reassembly struct {
	buf      *mem.Buf
	received map[uint16]bool
	count    uint16
	total    uint32
}

// Segmenter extends a UDP endpoint with fragmentation and reassembly.
type Segmenter struct {
	U *UDP
	// MaxInflight bounds concurrent reassemblies; beyond it the oldest is
	// evicted (loss recovery is the application's concern over UDP).
	MaxInflight int

	nextMsgID uint64
	inflight  map[uint64]*reassembly
	order     []uint64

	recv func(payload *mem.Buf)

	// Stats.
	TxFragments, RxFragments uint64
	Reassembled, Evicted     uint64
}

// NewSegmenter wraps a UDP endpoint. It takes over the endpoint's receive
// handler: fragments are reassembled, anything else is passed through.
func NewSegmenter(u *UDP) *Segmenter {
	s := &Segmenter{U: u, MaxInflight: 64, inflight: make(map[uint64]*reassembly)}
	u.SetRecvHandler(s.onPayload)
	return s
}

// SetRecvHandler installs the reassembled-object handler.
func (s *Segmenter) SetRecvHandler(fn func(payload *mem.Buf)) { s.recv = fn }

// fragPayloadBudget is the object bytes carried per fragment.
const fragPayloadBudget = MaxPayload - FragHeaderLen

// SendObject serializes obj across as many frames as needed. Objects that
// fit one frame still use the single-fragment format so the receiver path
// is uniform. With SendContiguous and SetRecvHandler it gives a Segmenter
// the same surface as UDP and TCPConn, so a server can run over it. It
// writes no frame header: a non-empty hdr fails.
func (s *Segmenter) SendObject(obj *core.Message, hdr ...byte) error {
	if len(hdr) > 0 {
		return errFrameHeader
	}
	m := s.U.Meter
	l := obj.Layout()
	total := l.ObjectLen()
	count := (total + fragPayloadBudget - 1) / fragPayloadBudget
	if count == 0 {
		count = 1
	}
	if count > 0xFFFF {
		return fmt.Errorf("netstack: object of %d bytes needs %d fragments (max 65535)", total, count)
	}
	msgID := s.nextMsgID
	s.nextMsgID++

	// Serialize the header region + copied fields once, into a pinned
	// staging buffer; fragment 0 (and possibly more) carry slices of it.
	front, err := s.U.Alloc.TryAlloc(l.HeaderLen + l.CopyLen)
	if err != nil {
		s.U.TxNoMem++
		return err
	}
	m.Charge(m.CPU.DMABufAllocCy)
	obj.WriteFront(l, front.Bytes(), front.SimAddr(), m)

	// The object is the concatenation of `front` and the zero-copy
	// buffers; walk it emitting fragments.
	type piece struct{ buf *mem.Buf }
	pieces := []piece{{front}}
	obj.IterateZCEntries(func(b *mem.Buf) { pieces = append(pieces, piece{b}) })

	pieceIdx, pieceOff := 0, 0
	var firstErr error
	for frag := 0; frag < count; frag++ {
		budget := fragPayloadBudget
		if rem := total - frag*fragPayloadBudget; rem < budget {
			budget = rem
		}
		// Fragment header + any copied slice of `front` share the first
		// entry; zero-copy pieces get their own (sliced) entries.
		head, err := s.U.txPrep(FragHeaderLen, nil)
		if err != nil {
			// Later fragments of this message cannot be sent either; the
			// receiver's reassembly eviction reclaims the partial message.
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		putFragHeader(head.Bytes()[PacketHeaderLen:], msgID, frag, count, total)
		m.Access(head.SimAddr()+PacketHeaderLen, FragHeaderLen)

		entries := []nic.SGEntry{{
			Data: head.Bytes(), Sim: head.SimAddr(), Rel: &s.U.rel, RelArg: head,
		}}
		for budget > 0 {
			p := pieces[pieceIdx].buf
			n := p.Len() - pieceOff
			if n > budget {
				n = budget
			}
			// A refcounted sub-view: zero-copy even mid-buffer. The
			// sub-view holds one reference released at DMA completion.
			view := p.SubView(pieceOff, n)
			if pieceIdx > 0 {
				// Zero-copy piece: charge the scatter-gather bookkeeping
				// once per entry posted.
				m.Charge(m.CPU.RegistryLookupCy)
				m.MetadataAccess(p.RefcountSimAddr())
			}
			entries = append(entries, nic.SGEntry{
				Data: view.Bytes(), Sim: view.SimAddr(), Rel: &s.U.rel, RelArg: view,
			})
			budget -= n
			pieceOff += n
			if pieceOff == p.Len() {
				pieceIdx++
				pieceOff = 0
			}
		}
		s.TxFragments++
		if err := s.U.post(entries); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	front.DecRef() // fragments hold their own sub-view references
	return firstErr
}

// SendContiguous sends an already-serialized payload as a single-fragment
// message, so a Segmenter endpoint is a drop-in transport (it satisfies
// loadgen.Endpoint): plain requests and segmented responses share the
// fragment framing. It is a one-segment UDP.SendSegments with the fragment
// header as the frame header.
func (s *Segmenter) SendContiguous(payload []byte, sim uint64) error {
	if FragHeaderLen+len(payload) > MaxPayload {
		return &ErrTooLarge{Size: PacketHeaderLen + FragHeaderLen + len(payload)}
	}
	var fh [FragHeaderLen]byte
	putFragHeader(fh[:], s.nextMsgID, 0, 1, len(payload))
	s.nextMsgID++
	s.TxFragments++
	return s.U.SendSegments([][]byte{payload}, []uint64{sim}, fh[:]...)
}

// putFragHeader writes fragment frag of count of message msgID, an object
// of total bytes, into the fragment header at fh.
func putFragHeader(fh []byte, msgID uint64, frag, count, total int) {
	wire.PutU64(fh, msgID)
	wire.PutU32(fh[8:], uint32(frag)|uint32(count)<<16)
	wire.PutU32(fh[12:], uint32(total))
}

// onPayload reassembles fragments and passes complete objects up.
func (s *Segmenter) onPayload(p *mem.Buf) {
	if p.Len() < FragHeaderLen {
		p.DecRef()
		return
	}
	s.RxFragments++
	fh := p.Bytes()
	msgID := wire.GetU64(fh)
	idxCount := wire.GetU32(fh[8:])
	idx := uint16(idxCount)
	count := uint16(idxCount >> 16)
	total := wire.GetU32(fh[12:])
	if count == 0 || int(idx) >= int(count) || total == 0 ||
		int(total) > int(count)*fragPayloadBudget {
		p.DecRef()
		return // malformed
	}

	r := s.inflight[msgID]
	if r == nil {
		rbuf, err := s.U.Alloc.TryAlloc(int(total))
		if err != nil {
			// No room to start a reassembly: drop the fragment as an RX
			// overrun; the sender's recovery layer retries the message.
			s.U.RxNoMem++
			p.DecRef()
			return
		}
		r = &reassembly{
			buf:      rbuf,
			received: make(map[uint16]bool),
			count:    count,
			total:    total,
		}
		s.inflight[msgID] = r
		s.order = append(s.order, msgID)
		s.evictIfNeeded()
	}
	if r.count != count || r.total != total || r.received[idx] {
		p.DecRef()
		return // inconsistent or duplicate
	}
	off := int(idx) * fragPayloadBudget
	frag := p.Bytes()[FragHeaderLen:]
	if off+len(frag) > int(total) {
		p.DecRef()
		return
	}
	// The NIC DMA-writes the fragment into place: no CPU charge.
	copy(r.buf.Bytes()[off:], frag)
	r.received[idx] = true
	p.DecRef()

	if len(r.received) == int(r.count) {
		delete(s.inflight, msgID)
		s.removeOrder(msgID)
		s.Reassembled++
		if s.recv != nil {
			s.recv(r.buf)
		} else {
			r.buf.DecRef()
		}
	}
}

func (s *Segmenter) evictIfNeeded() {
	for len(s.inflight) > s.MaxInflight && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		if r, ok := s.inflight[victim]; ok {
			r.buf.DecRef()
			delete(s.inflight, victim)
			s.Evicted++
		}
	}
}

func (s *Segmenter) removeOrder(id uint64) {
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}
