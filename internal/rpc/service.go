package rpc

import (
	"strconv"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/mem"
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
	// ShedQueue is the admission bound on the host core's queue depth
	// (driver.KVServer's ShedQueue, applied to RPC calls). Zero disables.
	ShedQueue int
	// Offload, when set, is a NIC-side serialization engine (its own
	// sim.Core on the same engine): the host core still pays RX, header
	// dispatch, deserialize, and app work, but reply/forward marshalling
	// and TX posting run — and queue — on the offload core. This is the
	// RPCAcc/Dagger deployment point: the hardware sits between the host
	// and the wire, so ser/des cycles leave the host's capacity budget.
	Offload *sim.Core
	// Tracer, when set, receives per-hop phase marks attributed to the
	// frame's root id ("rpc.h2.handle", "rpc.h2.reply"). Marks for
	// unsampled roots are dropped by the tracer itself.
	Tracer *trace.Tracer

	codec codec

	// pend maps outstanding downstream call ids to their fan-in state;
	// expired remembers call ids abandoned by a fan-in timeout or sibling
	// failure so their late replies can be told apart from garbage.
	pend     map[uint64]*inflight
	expired  map[uint64]struct{}
	nextCall uint64

	// jobs and infs are free lists of job and fan-in records, so a
	// steady-state call allocates neither.
	jobs []*job
	infs []*inflight

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
// the last reply's job has run finishCall, or after a child failure or
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

// job is the state of one host-core job: a call to serve (onCall) or a
// child reply to fan in (onChildReply). Records cycle through the
// service's free list and bind their method values once, when created, so
// submitting a job builds no closure.
type job struct {
	s   *Service
	h   Header
	p   *mem.Buf
	src byte
	// inf and done are a reply job's fan-in record and whether this reply
	// completed it.
	inf  *inflight
	done bool

	start func(sim.Time)
	call  func() sim.Time
	reply func() sim.Time
}

func (s *Service) getJob() *job {
	if n := len(s.jobs); n > 0 {
		j := s.jobs[n-1]
		s.jobs[n-1] = nil
		s.jobs = s.jobs[:n-1]
		return j
	}
	j := &job{s: s}
	j.start, j.call, j.reply = j.startCall, j.runCall, j.runReply
	return j
}

// putJob clears j's references and returns it to the free list.
func (s *Service) putJob(j *job) {
	j.p, j.inf = nil, nil
	s.jobs = append(s.jobs, j)
}

func (j *job) startCall(sim.Time) {
	s := j.s
	if s.Tracer != nil {
		s.Tracer.Mark(j.h.RootID, s.N.Eng.Now(), s.phase("handle"))
	}
}

// runCall serves the call. It recycles the record before serving, since
// serving may submit another job.
func (j *job) runCall() sim.Time {
	s, h, p, src := j.s, j.h, j.p, j.src
	s.putJob(j)
	return s.serveCall(h, p, src)
}

// runReply decodes one child reply and, when it completed the fan-in,
// answers upstream and recycles the fan-in record.
func (j *job) runReply() sim.Time {
	s, p, inf, done := j.s, j.p, j.inf, j.done
	s.putJob(j)
	m := s.N.Meter
	m.SetCategory(costmodel.CatDeserialize)
	if err := s.codec.decodeBody(p, true); err != nil {
		s.Errors++
	}
	if done {
		s.finishCall(inf.h, inf.src)
		s.putInflight(inf)
	}
	s.N.Arena.Reset()
	d := m.DrainTime()
	s.HostRec.Add(m.TakeReceipt())
	m.SetCategory(costmodel.CatRx)
	return d
}

// NewService wires a Service onto a node's UDP stack. The node must come
// from the same Rack as its peers; backends and timeouts are configured on
// the returned value before load starts.
func NewService(n *driver.Node, sys driver.System, name string, hop int, addr byte) *Service {
	s := &Service{
		N: n, Sys: sys, Name: name, Hop: hop, Addr: addr,
		FwdBytes: 64, RespBytes: 64,
		codec:   codec{sys: sys, n: n},
		pend:    make(map[uint64]*inflight),
		expired: make(map[uint64]struct{}),
		keyBuf:  []byte(name),
	}
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
// serialized goes through a metered core job.
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

// onCall admits or sheds an incoming call, then serves it on the host core.
func (s *Service) onCall(h Header, p *mem.Buf, src byte) {
	if s.ShedQueue > 0 && s.N.Core.QueueLen() >= s.ShedQueue {
		s.failTo(h.CallID, h.RootID, src, "shed")
		s.Shed++
		p.DecRef()
		return
	}
	j := s.getJob()
	j.h, j.p, j.src = h, p, src
	if !s.N.Core.Submit(sim.Job{Start: j.start, Run: j.call}) {
		s.putJob(j)
		p.DecRef()
	}
}

// serveCall is the host core's work for one call: metered deserialize, app
// work, then either the reply (leaf) or the downstream fan-out. The drain
// at the end charges exactly this call's host-side cycles to the core.
func (s *Service) serveCall(h Header, p *mem.Buf, src byte) sim.Time {
	m := s.N.Meter
	s.Handled++
	m.SetCategory(costmodel.CatDeserialize)
	if err := s.codec.decodeBody(p, false); err != nil {
		s.Errors++
	}
	m.SetCategory(costmodel.CatApp)
	m.Charge(s.AppCycles)
	if len(s.Backends) == 0 {
		s.finishCall(h, src)
	} else {
		s.callChildren(h, src)
	}
	s.N.Arena.Reset()
	d := m.DrainTime()
	s.HostRec.Add(m.TakeReceipt())
	s.RecN++
	m.SetCategory(costmodel.CatRx)
	return d
}

// finishCall sends the upstream reply. With an offload engine configured,
// the marshalling runs there instead of on the host core — the host's
// receipt for this call is already closed by the time the offload job
// executes, so the cycles land in OffRec.
func (s *Service) finishCall(h Header, src byte) {
	if s.Offload == nil {
		s.emitReply(h, src)
		return
	}
	ok := s.Offload.Submit(sim.Job{Run: func() sim.Time {
		m := s.N.Meter
		prev := m.SetCategory(costmodel.CatSerialize)
		s.emitReply(h, src)
		d := m.DrainTime()
		s.OffRec.Add(m.TakeReceipt())
		m.SetCategory(prev)
		return d
	}})
	if !ok {
		// Offload ring overflow: the reply is never built; the caller's
		// deadline machinery covers it.
		s.Errors++
	}
}

func (s *Service) emitReply(h Header, src byte) {
	m := s.N.Meter
	m.SetCategory(costmodel.CatSerialize)
	if s.respBuf == nil {
		s.respBuf = make([]byte, s.RespBytes)
	}
	rh := Header{Kind: KindReply, Method: h.Method, Hop: byte(s.Hop), CallID: h.CallID, RootID: h.RootID}
	frame := s.codec.buildReply(rh, s.respBuf)
	m.SetCategory(costmodel.CatTx)
	s.N.UDP.DstAddr = src
	if err := s.N.UDP.SendContiguous(frame, mem.UnpinnedSimAddr(frame)); err != nil {
		s.Errors++
	} else {
		s.RepliesSent++
	}
	if s.Tracer != nil {
		s.Tracer.Mark(h.RootID, s.N.Eng.Now(), s.phase("reply"))
	}
	s.N.Arena.Reset()
}

// callChildren fans the call out to every backend with fresh call ids and
// arms the fan-in deadline. With offload, the downstream marshalling and
// TX run on the offload engine (the pending-table registration rides along
// — single-threaded engine, so the bookkeeping is safe there).
func (s *Service) callChildren(h Header, src byte) {
	if s.Offload == nil {
		s.dispatchChildren(h, src)
		return
	}
	ok := s.Offload.Submit(sim.Job{Run: func() sim.Time {
		m := s.N.Meter
		prev := m.SetCategory(costmodel.CatSerialize)
		s.dispatchChildren(h, src)
		d := m.DrainTime()
		s.OffRec.Add(m.TakeReceipt())
		m.SetCategory(prev)
		return d
	}})
	if !ok {
		s.Errors++
	}
}

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
		ch := Header{Kind: KindCall, Method: h.Method, Hop: byte(s.Hop), CallID: cid, RootID: h.RootID}
		m.SetCategory(costmodel.CatSerialize)
		frame := s.codec.buildCall(ch, s.keyBuf, s.fwdBuf)
		m.SetCategory(costmodel.CatTx)
		s.N.UDP.DstAddr = addr
		if err := s.N.UDP.SendContiguous(frame, mem.UnpinnedSimAddr(frame)); err != nil {
			s.Errors++
		}
	}
	s.N.Arena.Reset()
	if s.CallTimeout > 0 {
		inf.timer = s.N.Eng.After(s.CallTimeout, inf.onTimer)
	}
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
	j := s.getJob()
	j.p, j.inf, j.done = p, inf, done
	if !s.N.Core.Submit(sim.Job{Run: j.reply}) {
		// Host ring overflow at fan-in: the reply is lost after being
		// counted; the upstream caller's own deadline covers the call.
		s.putJob(j)
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

// failTo sends the 9-byte shed frame for an upstream call id — billed to
// CatShed like KVServer's rejections, since it runs at frame-delivery or
// timer time under whatever category the last drained job left behind.
func (s *Service) failTo(callID, rootID uint64, src byte, why string) {
	m := s.N.Meter
	prev := m.SetCategory(costmodel.CatShed)
	defer m.SetCategory(prev)
	if s.Tracer != nil {
		s.Tracer.Mark(rootID, s.N.Eng.Now(), s.phase(why))
	}
	reply := driver.ShedReply(callID)
	s.N.UDP.DstAddr = src
	if err := s.N.UDP.SendPrebuilt(reply, mem.UnpinnedSimAddr(reply)); err != nil {
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
