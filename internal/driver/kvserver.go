package driver

import (
	"fmt"

	"cornflakes/internal/core"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/kvstore"
	"cornflakes/internal/mem"
	"cornflakes/internal/msgs"
	"cornflakes/internal/netstack"
	"cornflakes/internal/sim"
	"cornflakes/internal/trace"
	"cornflakes/internal/workloads"
)

// KVServer is the custom key-value store application of §6.1.2, serving
// get / multi-get / list / indexed-get / put requests with a pluggable
// serialization system. One instance runs per server core.
type KVServer struct {
	N     *Node
	Store *kvstore.Store
	Sys   System

	// UseSGArray switches Cornflakes to the non-combined serialize-and-send
	// path (the Table 5 ablation).
	UseSGArray bool

	// OnReceipt, when set, receives the per-request cycle breakdown
	// (Figure 11).
	OnReceipt func(r costmodel.Receipt)

	// Trace, when set, receives per-request marks (queue dispatch, shed)
	// and the same receipts OnReceipt sees, attributed to the owning flow
	// by peeked request id. Wire it with AttachKVTracer.
	Trace *trace.Tracer

	// Adaptive, when set, adjusts the zero-copy threshold between requests
	// from observed metadata cache behaviour (the §7 dynamic-threshold
	// extension).
	Adaptive *core.AdaptiveThreshold

	// Admission control: beyond these thresholds the server sheds incoming
	// requests with an explicit ShedReply instead of queueing them. Zero
	// disables a check. ShedQueue bounds Core.QueueLen (keep the RX ring
	// from starving ACK and completion traffic); ShedWater is a pinned-pool
	// occupancy fraction (refuse work the send path could not complete).
	ShedQueue int
	ShedWater float64

	// MaxBurst, when ≥ 2, enables the batched RX/TX datapath (EnableBatching
	// wires it): arriving requests queue in a software RX ring and one core
	// job drains up to MaxBurst of them, amortizing the per-job dispatch,
	// the poll-loop share of the RX cost, and — through a bracketed TX batch
	// flushed at the end of the burst — the reply doorbells. The burst is
	// adaptive by construction: the drainer serves min(backlog, MaxBurst),
	// so it collapses to single-request service at low load and only grows
	// with genuine backlog. At MaxBurst ≤ 1 (or on TCP/segmented servers)
	// the legacy unbatched path runs, bit-identical to before.
	MaxBurst int

	// OffloadSer models an RPCAcc/Dagger-style NIC serialization engine:
	// each request's serialize + deserialize cycles are charged to the
	// device instead of the host core, so they leave the core's capacity
	// budget (the receipt still records them — the work happens, it just
	// runs NIC-side). OffloadedTime accumulates the service time moved off
	// the host, the observable the Fig 10 offload row divides out.
	OffloadSer    bool
	OffloadedTime sim.Time
	lastSerCy     float64

	// Fault state (driven by faults.ScheduleNodePlan through the FaultNode
	// interface). Down marks the node crashed: arriving requests are
	// discarded (counted in DownDrops) and the netstack mirrors the state so
	// frames die at RX with exact accounting. Slowdown > 1 is gray failure —
	// the node keeps answering, but every service time is scaled by it, the
	// degraded-not-dead mode plain timeouts handle worst.
	Down     bool
	Slowdown float64

	// rxq is the batched path's software RX ring: requests waiting for the
	// drainer, bounded by Core.MaxQueue like the core's own queue.
	rxq []batchedReq
	// drainerArmed notes that a drainer job is already submitted, so each
	// backlog needs only one.
	drainerArmed bool

	// Stats.
	Handled, Errors uint64
	// Shed counts requests rejected by admission control (each one got an
	// explicit reply, or is counted in ShedReplyErrs when even the reply
	// could not be sent).
	Shed uint64
	// ShedReplyErrs counts shed replies the stack refused to transmit; the
	// client's timeout covers this case.
	ShedReplyErrs uint64
	// DownDrops counts requests the crash discarded: work parked in the RX
	// ring when the node died, plus queued-but-unserved core jobs that fire
	// while down. Recoveries counts cold restarts.
	DownDrops  uint64
	Recoveries uint64
	// Batch stats: Batches counts drainer runs, BatchedReqs the requests
	// they served (mean burst = BatchedReqs/Batches), MaxBatch the largest
	// single burst — the observable for "adaptive sizing engaged".
	Batches     uint64
	BatchedReqs uint64
	MaxBatch    int
}

// batchedReq is one request parked in the batched datapath's software RX
// ring, carrying the identity peeked at arrival and the arrival time so the
// drainer can account its true queue wait, plus the requester's fabric
// address so the reply goes back through the right switch port.
type batchedReq struct {
	p      *mem.Buf
	tid    uint64
	traced bool
	enq    sim.Time
	src    byte
}

// NewKVServer attaches a KV server to the node's stack: UDP normally, or
// the TCP-lite stack when the node was built with one (the fault-injection
// soak drives the KV workload over lossy TCP links).
func NewKVServer(n *Node, sys System) *KVServer {
	s := &KVServer{N: n, Store: kvstore.New(n.Alloc, n.Meter), Sys: sys}
	n.stack.SetRecvHandler(s.onPayload)
	return s
}

// NewSegmentedKVServer attaches a KV server whose requests and responses
// travel through the segmentation layer (the §3.2.3 extension): the node's
// stack becomes a Segmenter over its UDP stack, so responses of any size
// are supported, and e.g. a whole CDN object ships in one exchange instead
// of one request per jumbo-frame sub-object.
func NewSegmentedKVServer(n *Node, sys System) *KVServer {
	n.stack = netstack.NewSegmenter(n.UDP)
	return NewKVServer(n, sys)
}

// Preload loads records into the store and clears measurement state so
// preloading work is not billed to any request.
func (s *KVServer) Preload(recs []workloads.KV) { preload(s.N, s.Store, recs) }

// preload fills a node's store with recs, then drains the node's meter.
//
// Allocation is interleaved across records segment-by-segment so that the
// buffers of one multi-segment value are non-contiguous in memory — the
// paper's store is explicit that "individual values are allocated
// non-contiguously" (§5.1), and contiguity would let the prefetcher make
// both copies and refcount walks unrealistically cheap.
func preload(n *Node, store *kvstore.Store, recs []workloads.KV) {
	maxSegs := 0
	for _, r := range recs {
		if len(r.Vals) > maxSegs {
			maxSegs = len(r.Vals)
		}
	}
	bufs := make([][]*mem.Buf, len(recs))
	for seg := 0; seg < maxSegs; seg++ {
		for i := range recs {
			if seg >= len(recs[i].Vals) || len(recs[i].Vals[seg]) == 0 {
				continue
			}
			v := recs[i].Vals[seg]
			b := n.Alloc.Alloc(len(v))
			copy(b.Bytes(), v)
			bufs[i] = append(bufs[i], b)
		}
	}
	for i, r := range recs {
		store.PutBuf(r.Key, bufs[i]...)
	}
	n.Meter.Drain()
	n.Meter.TakeReceipt()
}

// Deliver injects a request payload directly (used by the multi-core
// dispatcher, which performs its own RX handling).
func (s *KVServer) Deliver(p *mem.Buf) { s.onPayload(p) }

// EnableBatching turns on the batched RX/TX datapath with the given burst
// cap and tells the UDP stack to split its RX charge accordingly. A cap of
// 1 (or less) selects the legacy unbatched path — that is the adaptive
// floor, and the determinism gate relies on it being bit-identical.
func (s *KVServer) EnableBatching(maxBurst int) {
	s.MaxBurst = maxBurst
	if s.N.UDP != nil {
		s.N.UDP.RxBatched = s.batched()
	}
}

// batched reports whether the batched datapath is active. Only a server on
// the plain UDP stack batches: TCP and segmented replies flow through
// connection or fragment state the TX batch bracket does not cover.
func (s *KVServer) batched() bool {
	_, udp := s.N.stack.(*netstack.UDP)
	return s.MaxBurst >= 2 && udp
}

// Crash kills the node: the netstack starts discarding arriving frames
// (counted there in RxDownDrops) and every request parked in the software
// RX ring dies with the process — dropped with exact accounting, never
// served. A job already executing on the core at the crash instant
// completes (the model's jobs are atomic units of service); queued core
// jobs that fire while down are discarded by the Down check in their Run.
func (s *KVServer) Crash() {
	s.Down = true
	if s.N.UDP != nil {
		s.N.UDP.Down = true
	}
	for i := range s.rxq {
		s.DownDrops++
		s.rxq[i].p.DecRef()
		s.rxq[i] = batchedReq{}
	}
	s.rxq = s.rxq[:0]
}

// Recover restarts the node cold: the netstack accepts frames again and
// the cache-hierarchy state is flushed — a rebooted machine has no warm
// lines, so post-recovery requests pay cold-cache service costs until the
// working set re-warms. The store itself survives (modelling durable or
// replicated data); what a crash loses is in-flight work and cache heat.
func (s *KVServer) Recover() {
	s.Down = false
	if s.N.UDP != nil {
		s.N.UDP.Down = false
	}
	s.N.Cache.Flush()
	s.Recoveries++
}

// SetGray sets the gray-failure service-time multiplier; k ≤ 1 restores
// healthy service.
func (s *KVServer) SetGray(slowdown float64) {
	if slowdown <= 1 {
		s.Slowdown = 0
		return
	}
	s.Slowdown = slowdown
}

// hostTime deducts the offloaded serialization share from one request's
// drained service time (a no-op unless OffloadSer is set). It must run on
// the drain taken right after handle, while lastSerCy still describes that
// request's receipt; the deduction is clamped so frame-delivery work folded
// into the same drain can never go negative.
func (s *KVServer) hostTime(d sim.Time) sim.Time {
	if !s.OffloadSer {
		return d
	}
	off := s.N.Meter.CPU.Cycles(s.lastSerCy)
	s.lastSerCy = 0
	if off > d {
		off = d
	}
	s.OffloadedTime += off
	return d - off
}

// scaled applies the gray-failure multiplier to one service time.
func (s *KVServer) scaled(d sim.Time) sim.Time {
	if s.Slowdown > 1 {
		return sim.Time(float64(d) * s.Slowdown)
	}
	return d
}

// PendingDepth is the server's total request backlog: the batched path's
// software RX ring plus the core's own queue. On the unbatched path the
// ring is always empty, so this equals Core.QueueLen — admission control
// and the queue-depth gauge use it so both datapaths shed and report on
// the same signal.
func (s *KVServer) PendingDepth() int { return len(s.rxq) + s.N.Core.QueueLen() }

func (s *KVServer) onPayload(p *mem.Buf) {
	// Capture the requester's fabric address now: by the time the core job
	// runs (or the drainer reaches the request), later frames will have
	// overwritten the stack's RxSrc. Zero outside a fabric topology.
	var src byte
	if s.N.UDP != nil {
		src = s.N.UDP.RxSrc
	}
	if (s.ShedQueue > 0 && s.PendingDepth() >= s.ShedQueue) ||
		(s.ShedWater > 0 && s.N.Alloc.Occupancy() >= s.ShedWater) {
		s.setReplyAddr(src)
		s.shed(p)
		return
	}
	// Peek the request id once (unmetered — tracing is observability, not
	// modelled work) so the dispatch mark and the receipt can be attributed
	// to the owning flow.
	var tid uint64
	traced := false
	if s.Trace != nil {
		tid, traced = peekRequestID(s.Sys, p.Bytes())
	}
	if s.batched() {
		s.enqueue(p, tid, traced, src)
		return
	}
	ok := s.N.Core.Submit(sim.Job{
		Start: func(enqueuedAt sim.Time) {
			if traced {
				s.Trace.Mark(tid, s.N.Eng.Now(), trace.PhaseHandle)
			}
		},
		Run: func() sim.Time {
			if s.Down {
				// The node crashed after this request was queued: the work
				// dies with the process, costing no (dead) CPU.
				s.DownDrops++
				p.DecRef()
				return 0
			}
			s.setReplyAddr(src)
			s.handle(p, tid, traced)
			return s.scaled(s.hostTime(s.N.Meter.DrainTime()))
		},
	})
	if !ok {
		if traced {
			s.Trace.Note(tid, "request dropped: rx ring overflow")
		}
		p.DecRef() // RX ring overflow: drop
	}
}

// enqueue parks a request in the software RX ring and makes sure a drainer
// job is pending. The ring honours the same bound as the core queue
// (Core.MaxQueue — the RX descriptor ring depth), with overflow counted in
// the same Dropped stat.
func (s *KVServer) enqueue(p *mem.Buf, tid uint64, traced bool, src byte) {
	c := s.N.Core
	if c.MaxQueue > 0 && len(s.rxq) >= c.MaxQueue {
		c.NoteDrop()
		if traced {
			s.Trace.Note(tid, "request dropped: rx ring overflow")
		}
		p.DecRef()
		return
	}
	s.rxq = append(s.rxq, batchedReq{p: p, tid: tid, traced: traced, enq: s.N.Eng.Now(), src: src})
	s.armDrainer()
}

// setReplyAddr points the stack's next sends at the requester's fabric
// address. Outside a fabric topology src is always zero, leaving the
// header bytes exactly as single-link testbeds always wrote them.
func (s *KVServer) setReplyAddr(src byte) {
	if s.N.UDP != nil {
		s.N.UDP.DstAddr = src
	}
}

// armDrainer submits one drainer job unless one is already pending. The
// job carries ExternalWait: the drainer accounts each request's wait
// itself, because the job-level wait describes the drainer, not the
// requests it will serve.
func (s *KVServer) armDrainer() {
	if s.drainerArmed {
		return
	}
	s.drainerArmed = true
	if !s.N.Core.Submit(sim.Job{ExternalWait: true, Run: s.drain}) {
		s.drainerArmed = false // queue bound hit; the backlog re-arms on next arrival
	}
}

// drain is one batched core job: it serves min(backlog, MaxBurst) requests
// back to back, bracketing their replies in a TX batch flushed at the end,
// and returns the summed service time. Per-request accounting is kept
// exact: request i's queue wait is its time in the ring plus the service
// of the i−1 batch members ahead of it (AccountWait), and each request's
// receipt is taken by handle as usual — the flush's doorbell cycles land
// in the drain total so the core stays busy for every cycle charged.
func (s *KVServer) drain() sim.Time {
	s.drainerArmed = false
	b := len(s.rxq)
	if b > s.MaxBurst {
		b = s.MaxBurst
	}
	if b == 0 {
		return 0
	}
	m := s.N.Meter
	t0 := s.N.Eng.Now()
	// One poll-loop iteration for the whole burst: the share onFrame
	// withheld per frame (RxBatched).
	m.Charge(m.CPU.RxPollCy)
	flush := b > 1
	if flush {
		s.N.UDP.BeginTxBatch()
	}
	var total, cum sim.Time
	for i := 0; i < b; i++ {
		r := s.rxq[i]
		s.N.Core.AccountWait(t0 - r.enq + cum)
		if r.traced {
			s.Trace.Mark(r.tid, t0, trace.PhaseHandle)
			if flush {
				s.Trace.Note(r.tid, fmt.Sprintf("batched: burst=%d pos=%d", b, i))
			}
		}
		// Reply headers are written at send time inside handle, so pointing
		// the stack at this request's source here is sufficient even though
		// the TX batch flushes after the burst.
		s.setReplyAddr(r.src)
		s.handle(r.p, r.tid, r.traced)
		d := s.scaled(s.hostTime(m.DrainTime()))
		cum += d
		total += d
	}
	// Shift the served requests out, zeroing the tail so the backing array
	// does not pin buffers.
	n := copy(s.rxq, s.rxq[b:])
	for i := n; i < len(s.rxq); i++ {
		s.rxq[i] = batchedReq{}
	}
	s.rxq = s.rxq[:n]
	if flush {
		prev := m.SetCategory(costmodel.CatTx)
		if err := s.N.UDP.FlushTx(); err != nil {
			s.Errors++
		}
		m.SetCategory(prev)
		total += s.scaled(m.DrainTime())
	}
	s.Batches++
	s.BatchedReqs += uint64(b)
	if b > s.MaxBatch {
		s.MaxBatch = b
	}
	if len(s.rxq) > 0 {
		s.armDrainer()
	}
	return total
}

// shed rejects a request with an explicit ShedReply. The check runs at
// frame-delivery time (before the request consumes a core slot), so the
// reply costs the server only the peek and a header-sized send — that is
// the point: shedding must stay cheap when the server cannot afford work.
func (s *KVServer) shed(p *mem.Buf) {
	defer p.DecRef()
	id, ok := peekRequestID(s.Sys, p.Bytes())
	if !ok {
		// Unparseable request: no id to address, nothing to reply to.
		s.Shed++
		s.ShedReplyErrs++
		return
	}
	s.shedReplyTo(id)
}

// shedReplyTo sends the explicit rejection for a request id, counting it.
// Also used mid-handling when a put's allocation fails: the client gets a
// shed reply instead of a dropped request.
//
// The work is billed to CatShed: the fast path runs at frame-delivery time,
// when the meter still carries whatever category the previous request left
// active — without the explicit category, overload-regime breakdowns would
// smear shed cycles across unrelated buckets.
func (s *KVServer) shedReplyTo(id uint64) {
	m := s.N.Meter
	prev := m.SetCategory(costmodel.CatShed)
	defer m.SetCategory(prev)
	if s.Trace != nil {
		s.Trace.Mark(id, s.N.Eng.Now(), trace.PhaseShed)
	}
	s.Shed++
	reply := ShedReply(id)
	sim := mem.UnpinnedSimAddr(reply)
	var err error
	if u, ok := s.N.stack.(*netstack.UDP); ok {
		// The UDP fast path: prebuilt reply, batched posting. Shedding has
		// to cost far less than serving or it cannot relieve the core.
		err = u.SendPrebuilt(reply, sim)
	} else {
		err = s.N.stack.SendContiguous(reply, sim)
	}
	if err != nil {
		s.ShedReplyErrs++
	}
}

// handle serves one request at its dispatch instant. tid/traced carry the
// request id peeked at submit time, so the receipt can be attributed to the
// owning flow (Run executes synchronously at dispatch, so Now() inside the
// deferred block is still the dispatch instant the service spans tile
// from).
func (s *KVServer) handle(p *mem.Buf, tid uint64, traced bool) {
	m := s.N.Meter
	s.Handled++
	fb0 := s.N.Ctx.Fallbacks
	defer func() {
		// Mass-free the per-request copied vectors (§3.2.2) and attribute
		// inter-request work (completions, next RX) to the rx bucket.
		s.N.Arena.Reset()
		rec := m.TakeReceipt()
		s.lastSerCy = rec.Cycles[costmodel.CatSerialize] + rec.Cycles[costmodel.CatDeserialize]
		if s.OnReceipt != nil {
			s.OnReceipt(rec)
		}
		if s.Trace != nil {
			if traced {
				if fb := s.N.Ctx.Fallbacks - fb0; fb > 0 {
					s.Trace.Note(tid, fmt.Sprintf("copy fallback: %d field(s) demoted under pressure", fb))
				}
				s.Trace.ServiceReceipt(tid, s.N.Eng.Now(), rec)
			} else {
				s.Trace.AggregateOnly(rec)
			}
		}
		if s.Adaptive != nil {
			s.Adaptive.Observe()
		}
		m.SetCategory(costmodel.CatRx)
	}()
	if p.Len() < 2 {
		s.Errors++
		p.DecRef()
		return
	}
	op := p.Bytes()[0]
	schema := reqSchema(op)
	if schema == nil {
		s.Errors++
		p.DecRef()
		return
	}
	m.SetCategory(costmodel.CatDeserialize)
	req, err := s.Sys.Decode(s.N, schema, p, 1)
	if err != nil {
		s.Errors++
		return
	}
	id := req.Int(0)
	var resp Msg
	switch op {
	case OpByteGet, OpByteGetIndex:
		m.SetCategory(costmodel.CatApp)
		var val *mem.Buf
		if op == OpByteGet {
			val = s.Store.Get(req.Bytes(1))
		} else {
			val = s.Store.GetIndex(req.Bytes(1), int(req.Int(2)))
		}
		m.SetCategory(costmodel.CatSerialize)
		resp = s.Sys.NewMsg(s.N, msgs.GetRespSchema)
		resp.SetInt(0, id)
		if val != nil {
			resp.SetBytes(1, val.Bytes(), val.SimAddr())
		}

	case OpByteGetM:
		resp = s.Sys.NewMsg(s.N, msgs.GetMSchema)
		resp.SetInt(0, id)
		for j, n := 0, req.Len(1); j < n; j++ {
			m.SetCategory(costmodel.CatApp)
			key, _ := req.Elem(1, j)
			val := s.Store.Get(key)
			m.SetCategory(costmodel.CatSerialize)
			if val != nil {
				resp.AddBytes(2, val.Bytes(), val.SimAddr())
			}
		}
		m.SetCategory(costmodel.CatSerialize)

	case OpByteGetList:
		m.SetCategory(costmodel.CatApp)
		vals := s.Store.GetList(req.Bytes(1))
		m.SetCategory(costmodel.CatSerialize)
		resp = s.Sys.NewMsg(s.N, msgs.GetListRespSchema)
		resp.SetInt(0, id)
		for _, v := range vals {
			resp.AddBytes(1, v.Bytes(), v.SimAddr())
		}

	default: // OpBytePut
		m.SetCategory(costmodel.CatApp)
		if err := s.Store.TryPut(req.Bytes(1), req.Bytes(2)); err != nil {
			// Pinned pool full: the store is unchanged; tell the client
			// explicitly instead of dropping the request.
			m.SetCategory(costmodel.CatTx)
			s.shedReplyTo(id)
			req.Release()
			return
		}
		m.SetCategory(costmodel.CatSerialize)
		resp = s.Sys.NewMsg(s.N, msgs.PutRespSchema)
		resp.SetInt(0, id)
		resp.SetInt(1, 1)
	}
	s.send(resp)
	m.SetCategory(costmodel.CatTx)
	resp.Release()
	req.Release()
}

// send transmits a reply on the system's own datapath, through whichever
// stack the node runs. The SG-array ablation path exists for Cornflakes
// objects only and is UDP-only.
func (s *KVServer) send(resp Msg) {
	var err error
	if resp.cf != nil && s.UseSGArray {
		err = s.N.UDP.SendObjectViaSGArray(resp.cf)
	} else {
		err = s.Sys.send(resp)
	}
	if err != nil {
		s.Errors++
	}
}

// reqSchema maps an op byte to its request schema.
func reqSchema(op byte) *core.Schema {
	switch op {
	case OpByteGet:
		return msgs.GetReqSchema
	case OpByteGetM:
		return msgs.GetMSchema
	case OpByteGetList, OpByteGetIndex:
		return msgs.GetListReqSchema
	case OpBytePut:
		return msgs.PutReqSchema
	}
	return nil
}
