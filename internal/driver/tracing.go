package driver

import (
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/trace"
)

// Tracer wiring: the trace package identifies a request by its wire id (the
// loadgen's request id), so every layer that observes a frame needs a cheap
// way to peek the id out of raw payload bytes. Requests carry a one-byte op
// tag ahead of the serialized body; responses are the bare serialized
// object, or a ShedReply.

// peekRequestID extracts the request id from a framed request payload (op
// byte + serialized body) without a metered deserialization.
func peekRequestID(sys System, p []byte) (uint64, bool) {
	if len(p) < 2 {
		return 0, false
	}
	return sys.PeekID(p[1:])
}

// peekResponseID extracts the request id from a response payload — a
// ShedReply or a bare serialized response object.
func peekResponseID(sys System, p []byte) (uint64, bool) {
	if id, ok := ShedID(p); ok {
		return id, true
	}
	return sys.PeekID(p)
}

// AttachKVTracer wires a tracer through every layer of a UDP KV testbed,
// mapping frames back to request ids with the server system's peeks:
//
//   - the client NIC port's Observer marks each request's TX chain
//     (PhaseReqWire at DMA completion, PhaseReqProp at wire exit, PhaseQueue
//     at server delivery) and notes frames lost on the wire;
//   - the server NIC port's Observer marks the response TX chain
//     (PhaseRspWire, PhaseRspProp) for replies and shed replies alike;
//   - RX-side drops (runt frames, buffer exhaustion) become notes on the
//     owning flow;
//   - KVServer.Trace takes the server-side hooks (PhaseHandle at core
//     dispatch, PhaseShed on admission-control rejection, per-request
//     receipts).
//
// Frames whose id cannot be peeked are skipped.
// The hooks are pure observation: no timing or buffer behaviour changes.
func AttachKVTracer(tb *Testbed, srv *KVServer, tr *trace.Tracer) {
	sys := srv.Sys
	payloadOf := func(frame []byte) ([]byte, bool) {
		if len(frame) <= netstack.PacketHeaderLen {
			return nil, false
		}
		return frame[netstack.PacketHeaderLen:], true
	}

	tb.Client.Port.Observer = func(r nic.TxRecord) {
		p, ok := payloadOf(r.Data)
		if !ok {
			return
		}
		id, ok := peekRequestID(sys, p)
		if !ok {
			return
		}
		if r.Dropped {
			tr.Note(id, "request frame lost on the wire")
			return
		}
		tr.Mark(id, r.DMADone, trace.PhaseReqWire)
		tr.Mark(id, r.TxDone, trace.PhaseReqProp)
		tr.Mark(id, r.DeliverAt, trace.PhaseQueue)
	}
	tb.Server.Port.Observer = func(r nic.TxRecord) {
		p, ok := payloadOf(r.Data)
		if !ok {
			return
		}
		id, ok := peekResponseID(sys, p)
		if !ok {
			return
		}
		if r.Dropped {
			tr.Note(id, "response frame lost on the wire")
			return
		}
		tr.Mark(id, r.DMADone, trace.PhaseRspWire)
		tr.Mark(id, r.TxDone, trace.PhaseRspProp)
	}
	tb.Server.UDP.OnDrop = func(p []byte, reason string) {
		if id, ok := peekRequestID(sys, p); ok {
			tr.Note(id, "request dropped at server RX: "+reason)
		}
	}
	tb.Client.UDP.OnDrop = func(p []byte, reason string) {
		if id, ok := peekResponseID(sys, p); ok {
			tr.Note(id, "response dropped at client RX: "+reason)
		}
	}
	srv.Trace = tr
}

// RegisterServerGauges registers the standard server-health gauges on a
// registry, in a fixed deterministic order: pinned-memory occupancy, core
// load and queueing (server.core.queue is PendingDepth, the requests
// waiting in the RX ring), admission-control and fallback activity, and
// stack drop counters.
func RegisterServerGauges(reg *trace.Registry, srv *KVServer) {
	alloc := srv.N.Alloc
	c := srv.N.Core
	ctx := srv.N.Ctx
	reg.Register("server.mem.slots", func() float64 { return float64(alloc.Stats().SlotsInUse) })
	reg.Register("server.mem.peak", func() float64 { return float64(alloc.Stats().PeakSlotsInUse) })
	reg.Register("server.mem.occupancy", func() float64 { return alloc.Occupancy() })
	reg.Register("server.core.util", func() float64 { return c.Utilization() })
	// PendingDepth: the requests waiting in the server's RX ring
	// (sim.Queue), not the drain armed on the core.
	reg.Register("server.core.queue", func() float64 { return float64(srv.PendingDepth()) })
	reg.Register("server.core.dropped", func() float64 { return float64(c.Dropped) })
	reg.Register("server.shed", func() float64 { return float64(srv.Shed) })
	reg.Register("server.fallbacks", func() float64 { return float64(ctx.Fallbacks) })
	if u := srv.N.UDP; u != nil {
		reg.Register("server.udp.rx_nomem", func() float64 { return float64(u.RxNoMem) })
		reg.Register("server.udp.tx_nomem", func() float64 { return float64(u.TxNoMem) })
	}
}
