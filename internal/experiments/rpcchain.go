package experiments

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/fabric"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/rpc"
	"cornflakes/internal/sim"
	"cornflakes/internal/trace"
	"cornflakes/internal/workloads"
)

// RPC runs the serializer-aware microservice call-graph experiment: a
// client calling a chain of tiers over the rack fabric, every hop paying
// its marshalling through the cost model. The grid sweeps chain depth ×
// offered load; dedicated points add fan-out, mid-chain shedding (the
// PR 2 admission-control interplay), hedged requests against the chain
// (the PR 7 interplay), an RPCAcc-style NIC-offload pair, and a traced
// run whose per-hop spans ship as an artifact.
//
// Checks:
//  1. serialized work per request grows superlinearly with chain depth —
//     mid tiers marshal twice (decode call + encode forward, decode reply
//     + encode reply) per one unit of app work, so a depth-4 chain pays
//     14 marshal units per request where depth 1 pays 2: chains amplify
//     exactly the overhead Cornflakes attacks, faster than depth itself;
//  2. tail amplification: the p99−p50 gap at the deepest chain exceeds the
//     single-tier gap at matched per-tier load;
//  3. the NIC-side serialization engine cuts host-core serialize cycles
//     per call ≥ 2× at the deepest chain, and the moved cycles appear on
//     the offload engine's receipts;
//  4. a mid-chain shed propagates hop by hop to the client and the books
//     stay exact;
//  5. hedged requests against the chain keep every ledger exact;
//  6. per-hop spans are present in the trace export;
//  7. fan-in child disposal is exact at every tier of every point;
//  8. accounting and same-seed replay determinism, as for cluster/chaos.
func RPC(sc Scale) *Report {
	r := &Report{
		ID:     "rpc",
		Title:  "RPC chains over the rack: depth × load, serialization share, tail amplification, NIC offload",
		Header: []string{"depth", "fan", "offl", "rate/s", "goodput", "p50µs", "p99µs", "ser%"},
	}

	// Per-tier capacity probe on the single-tier chain.
	capRes := capacityOf(func(rate float64) (loadgen.Result, *sim.Core) {
		p := rpcAt(sc, rpcOpts{Depth: 1, Rate: rate, Seed: 90})
		return p.Res, p.FrontCore
	}, 100_000)
	capRps := capRes.AchievedRps
	if capRps <= 0 {
		r.AddCheck("capacity: estimator produced a usable operating point", false,
			"capacity estimate %.0f rps", capRps)
		return r
	}
	// The estimator extrapolates raw core capacity from a stable
	// mid-utilization point; the chain's usable range sits well below it —
	// past ~0.45× the deep chains tip into a retry/queue spiral (RX-ring
	// drops plus fan-in timeouts) and goodput collapses to zero. The
	// ladder tops out at 0.4× so every grid point operates, and the
	// overload interplay points probe the unstable region deliberately.
	r.Notes = append(r.Notes, fmt.Sprintf("single-tier raw-core capacity estimate %.0f rps; ladder 0.1×–0.4×", capRps))

	depths := []int{1, 2, 4}
	rates := loadgen.GeometricRates(0.1*capRps, 0.4*capRps, sc.SweepPoints)
	grid := make([]rpcPoint, len(depths)*len(rates))
	forEach(sc.workers(), len(grid), func(i int) {
		di, ri := i/len(rates), i%len(rates)
		grid[i] = rpcAt(sc, rpcOpts{Depth: depths[di], Rate: rates[ri], Seed: 91})
	})

	// Special points: NIC offload at the deepest chain, a choked deep tier,
	// hedging against the chain, all with the 2-way fan-out layer.
	// Fan-out points run below the grid top: the extra fan-out marshalling
	// at the deepest tier moves the spiral threshold down to ~0.35×. The
	// shed point deliberately overdrives a choked deep tier at the grid
	// top; the hedge point runs light enough that hedges race genuine
	// stragglers instead of igniting a hedge→retry load spiral.
	topRate := rates[len(rates)-1]
	fanRate := 0.3 * capRps
	special := make([]rpcPoint, 4)
	forEach(sc.workers(), len(special), func(i int) {
		switch i {
		case 0:
			special[i] = rpcAt(sc, rpcOpts{Depth: 4, Fanout: 2, Rate: fanRate, Seed: 92})
		case 1:
			special[i] = rpcAt(sc, rpcOpts{Depth: 4, Fanout: 2, Rate: fanRate, Offload: true, Seed: 92})
		case 2:
			special[i] = rpcAt(sc, rpcOpts{Depth: 2, Fanout: 2, Rate: topRate, ShedQueue: 4, Seed: 93})
		case 3:
			// Hedge-delay calibration, tail-at-scale style: run an unhedged
			// control at the same seed, hedge at its measured p99 so hedges
			// race the genuine straggler tail. A delay picked a priori is
			// fragile — the latency profile shifts with scale — and a delay
			// under the typical latency ignites a metastable spiral (hedges
			// add load, latency crosses the delay for everyone, every flow
			// hedges and retries, the mid tier's RX ring overflows, goodput
			// collapses to zero). The light 0.15× rate leaves ≥2× headroom,
			// so even a full-hedging storm cannot self-sustain.
			ctl := rpcAt(sc, rpcOpts{Depth: 2, Fanout: 2, Rate: 0.15 * capRps, Seed: 94})
			special[i] = rpcAt(sc, rpcOpts{Depth: 2, Fanout: 2, Rate: 0.15 * capRps,
				Hedge: true, HedgeDelay: ctl.Res.P99(), Seed: 94})
		}
	})
	hostPt, offPt, shedPt, hedgePt := special[0], special[1], special[2], special[3]

	row := func(p rpcPoint) {
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(p.Depth), fmt.Sprint(p.Fanout), fmt.Sprintf("%v", p.Offload),
			fmt.Sprintf("%.0f", p.Res.OfferedRps),
			fmt.Sprintf("%.0f", p.Res.AchievedRps),
			f1(p.Res.P50().Seconds() * 1e6),
			f1(p.Res.P99().Seconds() * 1e6),
			f1(100 * p.SerShare()),
		})
	}
	for _, p := range grid {
		row(p)
	}
	for _, p := range special {
		row(p)
	}

	at := func(depth int, ri int) rpcPoint {
		for di, d := range depths {
			if d == depth {
				return grid[di*len(rates)+ri]
			}
		}
		return rpcPoint{}
	}
	topIdx := len(rates) - 1

	// 1. Serialized work per request grows superlinearly with depth: a mid
	// tier marshals twice per unit of app work (call decode + forward
	// encode, reply decode + reply encode), so depth 4 pays 14 marshal
	// units per request against depth 1's 2 — a 7× theoretical ratio for a
	// 4× depth increase. Require clear superlinearity (≥ 5×, > the 4×
	// linear-scaling bound).
	d1, d4 := at(1, topIdx), at(4, topIdx)
	serReq1, serReq4 := d1.SerPerRequest(), d4.SerPerRequest()
	r.AddCheck("serialized work per request grows superlinearly with chain depth (≥5× at 4× depth)",
		serReq1 > 0 && serReq4 >= 5*serReq1,
		"depth 1: %.0f cy/req, depth 4: %.0f cy/req (%.1f×; theoretical 7×)",
		serReq1, serReq4, serReq4/serReq1)

	// 2. Tail amplification: queueing noise stacks per hop, so the deep
	// chain's p99−p50 gap exceeds the single tier's at the same per-tier
	// load.
	gap1 := d1.Res.P99() - d1.Res.P50()
	gap4 := d4.Res.P99() - d4.Res.P50()
	r.AddCheck("tail amplification: depth-4 p99−p50 gap exceeds depth-1's at matched load",
		d1.Res.Completed > 0 && d4.Res.Completed > 0 && gap4 > gap1,
		"depth 1 gap %v, depth 4 gap %v", gap1, gap4)

	// 3. Offload: the NIC-side engine strips host serialize cycles.
	hostSer := hostPt.HostSerPerCall()
	offSer := offPt.HostSerPerCall()
	r.AddCheck("NIC offload cuts host-core serialize cycles/call ≥ 2× at the deepest chain",
		hostSer > 0 && offSer <= hostSer/2 && offPt.OffSerCycles > 0,
		"host %.0f cy/call → offload %.0f cy/call (NIC engine carried %.0f cy total)",
		hostSer, offSer, offPt.OffSerCycles)

	// 4. Mid-chain shedding propagates to the client.
	r.AddCheck("mid-chain shed propagates hop-by-hop to the client and books exactly",
		shedPt.Res.Shed > 0 && shedPt.FrontChildSheds > 0 && disposalExact(shedPt.Res),
		"client sheds %d, frontend saw %d backend sheds", shedPt.Res.Shed, shedPt.FrontChildSheds)

	// 5. Hedging against the chain stays exact.
	r.AddCheck("hedged requests against the chain keep the ledgers exact",
		hedgePt.Res.Hedges > 0 && disposalExact(hedgePt.Res) && hedgePt.ChildLedger,
		"hedges %d, sent %d, completed %d", hedgePt.Res.Hedges, hedgePt.Res.Sent, hedgePt.Res.Completed)

	// 6. Per-hop observability: a traced run's export carries the rpc hop
	// marks, so tail amplification is attributable hop by hop.
	tr := trace.New(trace.Config{SampleEvery: 4, SlowestK: traceSlowestK})
	tp := rpcAt(sc, rpcOpts{Depth: 3, Fanout: 2, Rate: fanRate, Seed: 95, Tracer: tr})
	export := trace.Export(tr, trace.NewRegistry())
	r.AddArtifact("rpc-trace.json", export)
	hasHops := bytes.Contains(export, []byte("rpc.h1.handle")) &&
		bytes.Contains(export, []byte("rpc.h3.handle")) &&
		bytes.Contains(export, []byte("rpc.h1.reply"))
	r.AddCheck("per-hop trace spans present in the export (rpc.h1…h3 marks)",
		tp.Res.Completed > 0 && hasHops,
		"export %d bytes, completed %d", len(export), tp.Res.Completed)

	// 7. Fan-in child disposal exact at every tier of every point.
	ledger := true
	all := append(append([]rpcPoint{}, grid...), special...)
	all = append(all, tp)
	for _, p := range all {
		if !p.ChildLedger {
			ledger = false
		}
	}
	r.AddCheck("fan-out/fan-in child ledger exact at every tier of every point",
		ledger, "checked %d points", len(all))

	// 8. Accounting + replay determinism (shared scenario contracts).
	exact := true
	for _, p := range all {
		if !disposalExact(p.Res) {
			exact = false
		}
	}
	addAccountingCheck(r, "depth×load grid + special points", exact, len(all))
	mid := at(2, (len(rates)-1)/2)
	addDeterminismCheck(r, "the mid-grid rpc point", mid.fingerprint(), func() string {
		return rpcAt(sc, rpcOpts{Depth: 2, Rate: rates[(len(rates)-1)/2], Seed: 91}).fingerprint()
	})

	r.Notes = append(r.Notes,
		"mid tiers marshal twice per app unit (decode+encode on both the call and the reply path)",
		"offl=true charges serialize+TX to a per-tier NIC engine (RPCAcc/Dagger deployment)")
	return r
}

// rpcOpts parameterizes one rpc chain point.
type rpcOpts struct {
	Depth, Fanout int
	Rate          float64
	Offload       bool
	ShedQueue     int // admission bound on the deepest chain tier (0 = off)
	Hedge         bool
	HedgeDelay    sim.Time // hedge launch delay (calibrated to a control run's p99)
	Seed          uint64
	Tracer        *trace.Tracer
}

// rpcPoint is one measured chain point.
type rpcPoint struct {
	Depth, Fanout int
	Offload       bool
	Res           loadgen.Result
	// Host / NIC-engine cycle receipts summed over the tiers, with the
	// handled-call count they cover.
	HostRec      costmodel.Receipt
	OffRec       costmodel.Receipt
	Handled      uint64
	OffSerCycles float64
	// FrontCore is the frontend tier's host core (capacity probe input).
	FrontCore       *sim.Core
	FrontChildSheds uint64
	ChildLedger     bool
	LateReplies     uint64
	PerTierHandled  []uint64
}

// SerShare is the serialized-work share of all host cycles.
func (p rpcPoint) SerShare() float64 {
	total := p.HostRec.Total()
	if total == 0 {
		return 0
	}
	ser := p.HostRec.Cycles[costmodel.CatSerialize] + p.HostRec.Cycles[costmodel.CatDeserialize]
	return ser / total
}

// SerPerRequest is the host serialized work (serialize + deserialize
// cycles, summed over every tier) per completed end-to-end request: the
// per-request marshalling bill the whole chain pays.
func (p rpcPoint) SerPerRequest() float64 {
	if p.Res.Completed == 0 {
		return 0
	}
	ser := p.HostRec.Cycles[costmodel.CatSerialize] + p.HostRec.Cycles[costmodel.CatDeserialize]
	return ser / float64(p.Res.Completed)
}

// HostSerPerCall is the host-core serialize cycles per handled call.
func (p rpcPoint) HostSerPerCall() float64 {
	if p.Handled == 0 {
		return 0
	}
	return p.HostRec.Cycles[costmodel.CatSerialize] / float64(p.Handled)
}

// fingerprint summarizes a point for the determinism gate.
func (p rpcPoint) fingerprint() string {
	return fmt.Sprintf("d=%d f=%d off=%v sent=%d done=%d shed=%d to=%d retr=%d hedge=%d p50=%d p99=%d handled=%v late=%d hostcy=%.0f",
		p.Depth, p.Fanout, p.Offload, p.Res.Sent, p.Res.Completed, p.Res.Shed,
		p.Res.TimedOut, p.Res.Retries, p.Res.Hedges, p.Res.P50(), p.Res.P99(),
		p.PerTierHandled, p.LateReplies, p.HostRec.Total())
}

// rpcRetry is the client-side deadline/retry policy for chain runs; the
// per-tier fan-in deadline sits well inside it so a mid-chain timeout
// reaches the client as an explicit failure, not a silent deadline miss.
func rpcRetry() loadgen.RetryPolicy {
	return loadgen.RetryPolicy{
		Deadline: 800 * sim.Microsecond, MaxRetries: 1,
		Backoff: 60 * sim.Microsecond, MaxBackoff: 240 * sim.Microsecond,
	}
}

const rpcFanInTimeout = 250 * sim.Microsecond

// rpcAt runs one chain point on a fresh rack.
func rpcAt(sc Scale, o rpcOpts) rpcPoint {
	cfg := rpc.ChainConfig{
		Sys: driver.SysCornflakes, Profile: nic.MellanoxCX6(), Cache: cachesim.DefaultConfig(),
		Fabric: fabric.Config{},
		Depth:  o.Depth, Fanout: o.Fanout,
		AppCycles: 1500, ReqBytes: 64, FwdBytes: 64, RespBytes: 128,
		CallTimeout: rpcFanInTimeout,
		Offload:     o.Offload,
		Tracer:      o.Tracer,
	}
	c := rpc.NewChain(cfg)
	if o.ShedQueue > 0 {
		// Choke the deepest chain tier only: every shed the client sees
		// had to propagate up through the healthy tiers above it.
		deep := c.Services[o.Depth-1]
		deep.ShedQueue = o.ShedQueue
	}
	lcfg := loadgen.Config{
		Eng: c.Eng, EP: c.Client.N.UDP,
		Gen: rpcGen{}, Client: c.Client,
		RatePerS: o.Rate,
		Warmup:   sim.Time(sc.WarmupMs) * sim.Millisecond,
		Measure:  sim.Time(sc.MeasureMs) * sim.Millisecond,
		Seed:     o.Seed, ClientID: 1,
		Retry:  rpcRetry(),
		ShedID: driver.ShedID,
		Tracer: o.Tracer,
	}
	if o.Hedge {
		lcfg.Hedge = loadgen.HedgePolicy{Delay: o.HedgeDelay}
	}
	res := loadgen.Run(lcfg)
	c.Eng.Run() // quiesce: fan-in timers, stragglers, late replies

	p := rpcPoint{
		Depth: o.Depth, Fanout: o.Fanout, Offload: o.Offload,
		Res:       res,
		FrontCore: c.Services[0].N.Core,
	}
	p.HostRec, p.Handled = c.HostReceipt()
	p.OffRec, _ = c.OffloadReceipt()
	p.OffSerCycles = p.OffRec.Cycles[costmodel.CatSerialize]
	p.FrontChildSheds = c.Services[0].ChildSheds
	p.ChildLedger = c.ChildLedgersExact()
	for _, s := range c.Services {
		p.PerTierHandled = append(p.PerTierHandled, s.Handled)
		p.LateReplies += s.LateChildReplies
	}
	return p
}

// rpcGen drives the generator with a fixed no-op request: the RPC client
// ignores workload content — what is under test is the call graph.
type rpcGen struct{}

func (rpcGen) Name() string                      { return "rpc-const" }
func (rpcGen) Records() []workloads.KV           { return nil }
func (rpcGen) Next(*rand.Rand) workloads.Request { return workloads.Request{Op: workloads.OpGet} }
