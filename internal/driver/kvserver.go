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
	// disables a check. ShedQueue bounds PendingDepth (keep the RX ring
	// from starving ACK and completion traffic); ShedWater is a pinned-pool
	// occupancy fraction (refuse work the send path could not complete).
	ShedQueue int
	ShedWater float64

	// maxBurst caps how many requests one drain of the software RX ring
	// serves; EnableBatching is its one setter, since the stack's RX charge
	// split must follow it. It takes effect on the plain UDP stack at 2 or
	// more: one drain then amortizes its core dispatch, the poll-loop share
	// of the RX cost, and — through a TX batch around the burst's replies —
	// the reply doorbells. The burst is adaptive by construction: a drain
	// serves min(backlog, maxBurst), so it collapses to single-request
	// service at low load and only grows with genuine backlog. Below 2, and
	// on TCP-lite or segmented servers, every drain serves one request with
	// no TX batch and no RxPollCy split: the default datapath.
	maxBurst int

	// Fault state (driven by faults.ScheduleNodePlan through the FaultNode
	// interface). Down marks the node crashed: requests the drainer reaches
	// are discarded (counted in DownDrops) and the netstack mirrors the
	// state so frames die at RX with exact accounting. Slowdown > 1 is gray
	// failure — the node keeps answering, but every drained request's
	// service time is scaled by it, the degraded-not-dead mode plain
	// timeouts handle worst.
	Down     bool
	Slowdown float64

	// rxq is the software RX ring every request waits in for the drainer,
	// RxRingDepth deep.
	rxq *sim.Queue[rxReq]

	// Stats.
	Handled, Errors uint64
	// Shed counts requests rejected by admission control (each one got an
	// explicit reply, or is counted in ShedReplyErrs when even the reply
	// could not be sent).
	Shed uint64
	// ShedReplyErrs counts shed replies the stack refused to transmit; the
	// client's timeout covers this case.
	ShedReplyErrs uint64
	// DownDrops counts requests the crash discarded: every request the
	// drainer reaches while the node is down. Recoveries counts cold
	// restarts.
	DownDrops  uint64
	Recoveries uint64
	// Batch stats: Batches counts drains, BatchedReqs the requests they took
	// from the ring (mean burst = BatchedReqs/Batches), MaxBatch the largest
	// single burst — the observable for "adaptive sizing engaged".
	Batches     uint64
	BatchedReqs uint64
	MaxBatch    int
}

// rxReq is one request parked in the software RX ring, carrying the
// identity peeked at arrival and the requester's fabric address, so the
// reply goes back through the right switch port.
type rxReq struct {
	p      *mem.Buf
	tid    uint64
	traced bool
	src    byte
}

// NewKVServer attaches a KV server to the node's stack: UDP normally, or
// the TCP-lite stack when the node was built with one (the fault-injection
// soak drives the KV workload over lossy TCP links).
func NewKVServer(n *Node, sys System) *KVServer {
	s := &KVServer{N: n, Store: kvstore.New(n.Alloc, n.Meter), Sys: sys}
	s.rxq = sim.NewQueue[rxReq](n.Core, RxRingDepth, s.drain)
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

// EnableBatching sets the drain's burst cap and tells the UDP stack to
// split its RX charge when the cap takes effect (see maxBurst). A cap of 1
// (or less) keeps the default one-request drain, so it changes nothing.
func (s *KVServer) EnableBatching(maxBurst int) {
	s.maxBurst = maxBurst
	if s.N.UDP != nil {
		s.N.UDP.RxBatched = s.burst() > 1
	}
}

// burst is how many requests one drain may serve: maxBurst on the plain
// UDP stack when it is at least 2, and 1 otherwise. TCP-lite and segmented
// replies flow through connection or fragment state the TX batch bracket
// does not cover.
func (s *KVServer) burst() int {
	if _, udp := s.N.stack.(*netstack.UDP); udp && s.maxBurst >= 2 {
		return s.maxBurst
	}
	return 1
}

// Crash kills the node: the netstack starts discarding arriving frames
// (counted there in RxDownDrops). Requests already in the software RX ring
// die with the process as the drainer reaches them: each accounts its
// wait, gets its PhaseHandle mark and is dropped with zero service into
// DownDrops, never served. A drain already executing on the core at the
// crash instant completes (the model's drains are atomic units of service).
func (s *KVServer) Crash() {
	s.Down = true
	if s.N.UDP != nil {
		s.N.UDP.Down = true
	}
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

// scaled applies the gray-failure multiplier to one service time.
func (s *KVServer) scaled(d sim.Time) sim.Time {
	if s.Slowdown > 1 {
		return sim.Time(float64(d) * s.Slowdown)
	}
	return d
}

// PendingDepth is the server's request backlog: the requests waiting in
// the software RX ring, not the ones a running drain has taken. Admission
// control and the queue-depth gauge read it.
func (s *KVServer) PendingDepth() int { return s.rxq.Len() }

// onPayload admits or sheds one arriving request and parks it in the
// software RX ring for the drainer.
func (s *KVServer) onPayload(p *mem.Buf) {
	// Capture the requester's fabric address now: by the time the drainer
	// reaches the request, later frames will have overwritten the stack's
	// RxSrc. Zero outside a fabric topology.
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
	// A full ring drops the request; the core's Dropped stat counts it.
	if !s.rxq.Push(rxReq{p: p, tid: tid, traced: traced, src: src}) {
		if traced {
			s.Trace.Note(tid, "request dropped: rx ring overflow")
		}
		p.DecRef()
	}
}

// setReplyAddr points the stack's next sends at the requester's fabric
// address. Outside a fabric topology src is always zero, leaving the
// header bytes exactly as single-link testbeds always wrote them.
func (s *KVServer) setReplyAddr(src byte) {
	if s.N.UDP != nil {
		s.N.UDP.DstAddr = src
	}
}

// drain is the RX ring's drain and the one way a request is served: it
// serves min(backlog, burst()) requests back to back and returns their
// summed service time, each request's scaled by any gray-failure slowdown.
// Per-request accounting is exact: request i's queue wait is its time in
// the ring plus the service of the i−1 burst members ahead of it (the
// ring's Pop records it), and each request's receipt is taken by handle.
// A burst of 2 or more also pays one poll-loop share per drain and
// brackets the replies in a TX batch: each reply posts as it is sent, and
// the batch's doorbell cycles, charged when it ends, land in the drain
// total so the core stays busy for every cycle charged. While the node is
// down the drain costs nothing: each request it reaches is dropped into
// DownDrops.
func (s *KVServer) drain() sim.Time {
	burst := s.burst()
	b := min(s.PendingDepth(), burst)
	m := s.N.Meter
	t0 := s.N.Eng.Now()
	if burst > 1 && !s.Down {
		// One poll-loop iteration for the whole burst: the share onFrame
		// withheld per frame (RxBatched).
		m.Charge(m.CPU.RxPollCy)
	}
	batch := b > 1 && !s.Down
	if batch {
		s.N.UDP.BeginTxBatch()
	}
	var total sim.Time
	for i := 0; i < b; i++ {
		r := s.rxq.Pop(total)
		if r.traced {
			s.Trace.Mark(r.tid, t0, trace.PhaseHandle)
			if batch {
				s.Trace.Note(r.tid, fmt.Sprintf("batched: burst=%d pos=%d", b, i))
			}
		}
		if s.Down {
			// The node crashed after this request arrived: the work dies
			// with the process, costing no (dead) CPU.
			s.DownDrops++
			r.p.DecRef()
			continue
		}
		s.setReplyAddr(r.src)
		s.handle(r.p, r.tid, r.traced)
		total += s.scaled(m.DrainTime())
	}
	if batch {
		prev := m.SetCategory(costmodel.CatTx)
		s.N.UDP.EndTxBatch()
		m.SetCategory(prev)
		total += s.scaled(m.DrainTime())
	}
	s.Batches++
	s.BatchedReqs += uint64(b)
	if b > s.MaxBatch {
		s.MaxBatch = b
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

// shedReplyTo sends the explicit rejection for a request id through
// Node.SendShed, counting it. Also used mid-handling when a put's
// allocation fails: the client gets a shed reply instead of a dropped
// request.
func (s *KVServer) shedReplyTo(id uint64) {
	if s.Trace != nil {
		s.Trace.Mark(id, s.N.Eng.Now(), trace.PhaseShed)
	}
	s.Shed++
	if s.N.SendShed(id) != nil {
		s.ShedReplyErrs++
	}
}

// handle serves one request at its drain instant. tid/traced carry the
// request id peeked at arrival, so the receipt can be attributed to the
// owning flow (the drain runs synchronously at dispatch, so Now() inside
// the deferred block is still the instant the service spans tile from).
func (s *KVServer) handle(p *mem.Buf, tid uint64, traced bool) {
	m := s.N.Meter
	s.Handled++
	fb0 := s.N.Ctx.Fallbacks
	defer func() {
		// Mass-free the per-request copied vectors (§3.2.2) and attribute
		// inter-request work (completions, next RX) to the rx bucket.
		s.N.Arena.Reset()
		rec := m.TakeReceipt()
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
		err = s.Sys.Send(resp)
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
