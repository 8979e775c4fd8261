package rpc

import (
	"strconv"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/sim"
	"cornflakes/internal/trace"
)

// Service is one tier of a call graph: it serves KindCall frames on its
// node's core, optionally fans out to backend services and fans the
// replies back in, and answers its caller with a KindReply (or a shed
// frame when it rejects, a backend fails, or its fan-in deadline fires).
// All serialization work — decoding calls, encoding downstream calls and
// upstream replies — runs through the node's costmodel meter, so a chain
// of Services reproduces per-hop marshalling cost end to end.
type Service struct {
	N    *driver.Node
	Sys  driver.System
	Name string
	// Hop is this tier's depth in the graph (1 = frontend). Stamped into
	// outgoing frames and trace phase labels.
	Hop int
	// Addr is this service's fabric address (for diagnostics).
	Addr byte

	// Backends are the fabric addresses this tier calls before it can
	// answer. Empty means leaf: the tier replies directly.
	Backends []byte
	// CallTimeout bounds the fan-in wait for backend replies. Zero waits
	// forever (the client's own retry deadline is then the only bound).
	CallTimeout sim.Time
	// AppCycles is the modelled application work per handled call, charged
	// to CatApp between deserialize and the downstream/reply serialize.
	AppCycles float64
	// FwdBytes / RespBytes size the payloads of downstream calls and
	// upstream replies.
	FwdBytes  int
	RespBytes int
	// ShedQueue is the admission bound on the host queue's depth
	// (driver.KVServer's ShedQueue, applied to RPC calls). Zero disables.
	ShedQueue int
	// Offload, when set, is the queue of a NIC-side serialization engine
	// (its own sim.Core on the same engine): the host core still pays RX,
	// header dispatch, deserialize, and app work, but reply/forward
	// marshalling and TX posting run — and queue — on the offload core.
	// This is the RPCAcc/Dagger deployment point: the hardware sits
	// between the host and the wire, so ser/des cycles leave the host's
	// capacity budget. NewChain builds it (ChainConfig.Offload).
	Offload *sim.Queue[offloadSend]
	// Tracer, when set, receives per-hop phase marks attributed to the
	// frame's root id ("rpc.h2.handle", "rpc.h2.reply"). Marks for
	// unsampled roots are dropped by the tracer itself.
	Tracer *trace.Tracer

	// hdr is the frame-header scratch of every send. The engine is serial,
	// and each send copies it into the DMA buffer before it returns.
	hdr [HeaderLen]byte

	// pend maps outstanding downstream call ids to their fan-in state;
	// expired remembers call ids abandoned by a fan-in timeout or sibling
	// failure so their late replies can be told apart from garbage.
	pend     map[uint64]*inflight
	expired  map[uint64]struct{}
	nextCall uint64

	// rxq is the host core's queue of calls and child replies.
	rxq *sim.Queue[work]
	// infs is the free list of fan-in records, so a steady-state call
	// allocates none.
	infs []*inflight

	// emitReplyFn and dispatchChildrenFn are the two sends offload
	// dispatches, bound once so handing one over allocates nothing.
	emitReplyFn, dispatchChildrenFn func(Header, byte)

	// Stats. The child-call ledger is exact after the engine quiesces:
	// ChildCalls == ChildReplies + ChildSheds + ChildAbandoned, and
	// LateChildReplies ≤ ChildAbandoned (a late reply is the wasted work
	// of an abandoned child arriving anyway).
	Handled          uint64 // calls admitted to the host core
	Shed             uint64 // calls rejected at admission
	Errors           uint64 // malformed frames, decode/send failures
	RepliesSent      uint64 // KindReply frames sent upstream
	FailsSent        uint64 // shed frames sent upstream (timeout/backend failure)
	ChildCalls       uint64
	ChildReplies     uint64 // backend replies fanned in while still wanted
	ChildSheds       uint64 // backend rejections/failures fanned in
	ChildAbandoned   uint64 // children written off by fan-in timeout or sibling failure
	ChildTimeouts    uint64 // fan-in deadlines that fired
	LateChildReplies uint64 // replies from abandoned children (wasted work)

	// HostRec / OffRec accumulate the cycle receipts drained on the host
	// core vs the offload engine, over RecN handled calls — the
	// serialization-share and offload-benefit observables.
	HostRec costmodel.Receipt
	OffRec  costmodel.Receipt
	RecN    uint64

	fwdBuf  []byte
	respBuf []byte
	keyBuf  []byte
}

// inflight is the fan-in state for one upstream call awaiting backends.
// Records cycle through the service's free list. One returns there after
// the last reply's drain has answered upstream, or after a child failure or
// the fan-in timeout has failed the call upstream. By then the timer has
// fired or been cancelled, and no pend entry still points at the record.
type inflight struct {
	h        Header // the upstream call being served
	src      byte   // who to answer
	await    int
	failed   bool
	timer    sim.Timer
	children []uint64
	// onTimer is the fan-in deadline callback, bound once when the record
	// is created.
	onTimer func()
}

func (s *Service) getInflight() *inflight {
	if n := len(s.infs); n > 0 {
		inf := s.infs[n-1]
		s.infs[n-1] = nil
		s.infs = s.infs[:n-1]
		return inf
	}
	inf := &inflight{}
	inf.onTimer = func() { s.onFanInTimeout(inf) }
	return inf
}

// putInflight clears inf, keeping its children slice, and returns it to
// the free list.
func (s *Service) putInflight(inf *inflight) {
	inf.h, inf.src, inf.await, inf.failed = Header{}, 0, 0, false
	inf.timer = sim.Timer{}
	inf.children = inf.children[:0]
	s.infs = append(s.infs, inf)
}

// work is one element of the host queue: a call to serve (h.Kind is
// KindCall) or a child reply to fan in, with its fan-in record and whether
// this reply completed it.
type work struct {
	h    Header
	p    *mem.Buf
	src  byte
	inf  *inflight
	done bool
}

// offloadSend is one element of the offload engine's queue: the upstream
// reply (emitReplyFn) or the downstream fan-out (dispatchChildrenFn) for
// the call h from src.
type offloadSend struct {
	send func(Header, byte)
	h    Header
	src  byte
}

// drain serves the oldest element of the host queue, a call or a child
// reply. Its body is deserialized through the metered path and discarded:
// an RPC hop pays the full parse cost although the modelled services keep
// no application state. A body that fails to decode counts in Errors, and
// a call with one is dropped, as KVServer drops an undecodable request;
// the caller's deadline covers it. The drain charges exactly this
// element's host-side cycles to the core.
func (s *Service) drain() sim.Time {
	w := s.rxq.Pop(0)
	m := s.N.Meter
	call := w.h.Kind == KindCall
	schema := msgs.GetRespSchema
	if call {
		if s.Tracer != nil {
			s.Tracer.Mark(w.h.RootID, s.N.Eng.Now(), s.phase("handle"))
		}
		s.Handled++
		s.RecN++
		schema = msgs.PutReqSchema
	}
	m.SetCategory(costmodel.CatDeserialize)
	body, err := s.Sys.Decode(s.N, schema, w.p, HeaderLen)
	if err != nil {
		s.Errors++
	} else {
		body.Release()
	}
	switch {
	case call && err == nil:
		s.serveCall(w.h, w.src)
	case w.done:
		s.fanIn(w.inf, err == nil)
	}
	s.N.Arena.Reset()
	d := m.DrainTime()
	s.HostRec.Add(m.TakeReceipt())
	m.SetCategory(costmodel.CatRx)
	return d
}

// fanIn answers upstream for the call whose fan-in a child reply just
// completed, or fails the call there when that reply did not decode, and
// recycles the fan-in record. An undecodable reply that does not complete
// the fan-in only counts in Errors: a sibling failure or the timeout may
// already have recycled the record for another call.
func (s *Service) fanIn(inf *inflight, decoded bool) {
	if decoded {
		s.offload(s.emitReplyFn, inf.h, inf.src)
	} else {
		s.failTo(inf.h.CallID, inf.h.RootID, inf.src, "fail")
	}
	s.putInflight(inf)
}

// NewService wires a Service onto a node's UDP stack. The node must come
// from the same Rack as its peers; backends and timeouts are configured on
// the returned value before load starts.
func NewService(n *driver.Node, sys driver.System, name string, hop int, addr byte) *Service {
	s := &Service{
		N: n, Sys: sys, Name: name, Hop: hop, Addr: addr,
		FwdBytes: 64, RespBytes: 64,
		pend:    make(map[uint64]*inflight),
		expired: make(map[uint64]struct{}),
		keyBuf:  []byte(name),
	}
	s.rxq = sim.NewQueue[work](n.Core, driver.RxRingDepth, s.drain)
	s.emitReplyFn, s.dispatchChildrenFn = s.emitReply, s.dispatchChildren
	n.UDP.SetRecvHandler(s.onPayload)
	return s
}

func (s *Service) newCallID() uint64 {
	s.nextCall++
	return uint64(s.Addr)<<56 | s.nextCall
}

func (s *Service) phase(what string) string {
	return "rpc.h" + strconv.Itoa(s.Hop) + "." + what
}

// onPayload dispatches one delivered frame. Header inspection and fan-in
// bookkeeping run unmetered at frame-delivery time (they model the id-peek
// a real server does before committing a core to the request); everything
// serialized waits in the host queue and is served, metered, by its drain.
func (s *Service) onPayload(p *mem.Buf) {
	src := s.N.UDP.RxSrc
	b := p.Bytes()
	if id, ok := driver.ShedID(b); ok {
		p.DecRef()
		s.onChildFailure(id)
		return
	}
	if len(b) < HeaderLen {
		s.Errors++
		p.DecRef()
		return
	}
	h := DecodeHeader(b)
	switch h.Kind {
	case KindCall:
		s.onCall(h, p, src)
	case KindReply:
		s.onChildReply(h, p)
	default:
		s.Errors++
		p.DecRef()
	}
}

// onCall admits or sheds an incoming call, then queues it for the host
// core.
func (s *Service) onCall(h Header, p *mem.Buf, src byte) {
	if s.ShedQueue > 0 && s.rxq.Len() >= s.ShedQueue {
		s.failTo(h.CallID, h.RootID, src, "shed")
		s.Shed++
		p.DecRef()
		return
	}
	if !s.rxq.Push(work{h: h, p: p, src: src}) {
		p.DecRef()
	}
}

// serveCall runs a decoded call's app work, then either the reply (leaf)
// or the downstream fan-out.
func (s *Service) serveCall(h Header, src byte) {
	m := s.N.Meter
	m.SetCategory(costmodel.CatApp)
	m.Charge(s.AppCycles)
	if len(s.Backends) == 0 {
		s.offload(s.emitReplyFn, h, src)
	} else {
		s.offload(s.dispatchChildrenFn, h, src)
	}
}

// offload runs one send for the call h from src — the upstream reply
// (emitReplyFn) or the downstream fan-out (dispatchChildrenFn) — on the
// host core, or, with an offload engine configured, queues it there: the
// host's receipt for this call is already closed by the time the offload
// engine serves it, so the marshalling and TX cycles land in OffRec. The
// fan-out's pending-table registration rides along (single-threaded
// engine, so the bookkeeping is safe there).
func (s *Service) offload(send func(Header, byte), h Header, src byte) {
	if s.Offload == nil {
		send(h, src)
		return
	}
	if !s.Offload.Push(offloadSend{send: send, h: h, src: src}) {
		// Offload ring overflow: the frames are never built; the caller's
		// deadline machinery covers the call.
		s.Errors++
	}
}

// drainOffload is the offload engine's drain: it runs the oldest queued
// send and bills its cycles to OffRec.
func (s *Service) drainOffload() sim.Time {
	o := s.Offload.Pop(0)
	m := s.N.Meter
	prev := m.SetCategory(costmodel.CatSerialize)
	o.send(o.h, o.src)
	d := m.DrainTime()
	s.OffRec.Add(m.TakeReceipt())
	m.SetCategory(prev)
	return d
}

// emitReply sends the upstream reply for the call h to src: a GetResp body
// behind a KindReply header.
func (s *Service) emitReply(h Header, src byte) {
	m := s.N.Meter
	m.SetCategory(costmodel.CatSerialize)
	if s.respBuf == nil {
		s.respBuf = make([]byte, s.RespBytes)
	}
	resp := s.Sys.NewMsg(s.N, msgs.GetRespSchema)
	resp.SetInt(0, h.CallID)
	resp.SetBytes(1, s.respBuf, 0)
	rh := Header{Kind: KindReply, Method: h.Method, Hop: byte(s.Hop), CallID: h.CallID, RootID: h.RootID}
	if err := s.send(resp, rh, src); err != nil {
		s.Errors++
	} else {
		s.RepliesSent++
	}
	if s.Tracer != nil {
		s.Tracer.Mark(h.RootID, s.N.Eng.Now(), s.phase("reply"))
	}
	s.N.Arena.Reset()
}

// dispatchChildren fans the call h from src out to every backend with
// fresh call ids and arms the fan-in deadline.
func (s *Service) dispatchChildren(h Header, src byte) {
	m := s.N.Meter
	if s.fwdBuf == nil {
		s.fwdBuf = make([]byte, s.FwdBytes)
	}
	inf := s.getInflight()
	inf.h, inf.src, inf.await = h, src, len(s.Backends)
	for _, addr := range s.Backends {
		cid := s.newCallID()
		inf.children = append(inf.children, cid)
		s.pend[cid] = inf
		s.ChildCalls++
		m.SetCategory(costmodel.CatSerialize)
		call := s.Sys.NewMsg(s.N, msgs.PutReqSchema)
		call.SetInt(0, cid)
		call.SetBytes(1, s.keyBuf, 0)
		call.SetBytes(2, s.fwdBuf, 0)
		ch := Header{Kind: KindCall, Method: h.Method, Hop: byte(s.Hop), CallID: cid, RootID: h.RootID}
		if err := s.send(call, ch, addr); err != nil {
			s.Errors++
		}
	}
	s.N.Arena.Reset()
	if s.CallTimeout > 0 {
		inf.timer = s.N.Eng.After(s.CallTimeout, inf.onTimer)
	}
}

// send sends the body msg behind the header h to the fabric address dst
// through System.Send, then releases msg. It is billed as KVServer bills
// a reply: the send under the caller's CatSerialize, the release under
// CatTx.
func (s *Service) send(msg driver.Msg, h Header, dst byte) error {
	h.EncodeTo(s.hdr[:])
	s.N.UDP.DstAddr = dst
	err := s.Sys.Send(msg, s.hdr[:]...)
	s.N.Meter.SetCategory(costmodel.CatTx)
	msg.Release()
	return err
}

// onChildReply resolves a backend reply against the pending table. Replies
// for abandoned children are classified as late — the wasted-work ledger —
// and dropped at the header peek, before any deserialize is paid (the
// pending-table miss is exactly the cheap check a real fan-in does first).
func (s *Service) onChildReply(h Header, p *mem.Buf) {
	inf, ok := s.pend[h.CallID]
	if !ok {
		if _, late := s.expired[h.CallID]; late {
			delete(s.expired, h.CallID)
			s.LateChildReplies++
		} else {
			s.Errors++
		}
		p.DecRef()
		return
	}
	delete(s.pend, h.CallID)
	s.ChildReplies++
	inf.await--
	done := inf.await == 0
	if done {
		inf.timer.Cancel()
	}
	if !s.rxq.Push(work{h: h, p: p, inf: inf, done: done}) {
		// Host ring overflow at fan-in: the reply is lost after being
		// counted; the upstream caller's own deadline covers the call.
		p.DecRef()
	}
}

// onChildFailure handles a shed frame from a backend: the call tree under
// this request cannot complete, so fail fast — cancel the deadline, write
// off the surviving siblings, and propagate the failure upstream.
func (s *Service) onChildFailure(id uint64) {
	inf, ok := s.pend[id]
	if !ok {
		if _, late := s.expired[id]; late {
			delete(s.expired, id)
			s.LateChildReplies++
		} else {
			s.Errors++
		}
		return
	}
	delete(s.pend, id)
	s.ChildSheds++
	inf.await--
	if inf.failed {
		return
	}
	inf.failed = true
	inf.timer.Cancel()
	s.abandonSiblings(inf)
	s.failTo(inf.h.CallID, inf.h.RootID, inf.src, "fail")
	s.putInflight(inf)
}

// onFanInTimeout fires when backends are too slow: every still-pending
// child is abandoned (its eventual reply becomes late/wasted work) and the
// upstream caller gets a failure instead of silence.
func (s *Service) onFanInTimeout(inf *inflight) {
	if inf.await == 0 || inf.failed {
		return
	}
	inf.failed = true
	s.ChildTimeouts++
	s.abandonSiblings(inf)
	s.failTo(inf.h.CallID, inf.h.RootID, inf.src, "timeout")
	s.putInflight(inf)
}

func (s *Service) abandonSiblings(inf *inflight) {
	for _, cid := range inf.children {
		if s.pend[cid] == inf {
			delete(s.pend, cid)
			s.expired[cid] = struct{}{}
			s.ChildAbandoned++
			inf.await--
		}
	}
}

// failTo sends the shed frame for an upstream call id to src through
// Node.SendShed, KVServer's shed sender.
func (s *Service) failTo(callID, rootID uint64, src byte, why string) {
	if s.Tracer != nil {
		s.Tracer.Mark(rootID, s.N.Eng.Now(), s.phase(why))
	}
	s.N.UDP.DstAddr = src
	if err := s.N.SendShed(callID); err != nil {
		s.Errors++
	} else {
		s.FailsSent++
	}
}

// PendingChildren reports the outstanding fan-in entries (zero once the
// engine quiesces and every call tree resolved or timed out).
func (s *Service) PendingChildren() int { return len(s.pend) }

// ChildLedgerExact verifies the fan-out disposal invariant after quiesce.
func (s *Service) ChildLedgerExact() bool {
	return s.ChildCalls == s.ChildReplies+s.ChildSheds+s.ChildAbandoned &&
		s.LateChildReplies <= s.ChildAbandoned
}
