package experiments

import (
	"fmt"

	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/trace"
	"cornflakes/internal/workloads"
)

// The batching experiment: sweep the server's RX/TX burst cap against an
// offered-load ladder and measure what doorbell/poll amortization buys.
// Batching is the classic throughput-for-latency trade; the adaptive
// burst policy (serve whatever backlog exists, up to the cap) is supposed
// to collapse the trade at low load. The sweep checks both sides:
//
//  1. at the deepest point of the ladder (1.5× the unbatched capacity)
//     the batched server delivers ≥ 10% more goodput than burst cap 1;
//  2. at the lightest point (0.2× capacity) its p99 stays within 5% of
//     the unbatched baseline, because bursts collapse to one;
//  3. the adaptation is visible in the burst statistics — mean burst ≈ 1
//     at low load, growing toward the cap past saturation;
//  4. the mechanism is the claimed one: doorbells per posted frame fall
//     well below 1 at the deepest point;
//  5. the batched datapath is deterministic — re-running the deepest
//     point reproduces the result fingerprint exactly.
//
// The workload uses small (128 B) values so fixed per-packet costs — the
// RX poll and TX doorbell shares batching amortizes — dominate the
// per-request budget; large values would bury the effect under copy and
// DMA time that batching cannot touch.

// batchingBursts is the burst-cap ladder. 1 is the degenerate cap (the
// default one-request drain every other experiment runs) and serves as
// the baseline; 16 is comfortably past the knee of the amortization curve.
var batchingBursts = []int{1, 4, 16}

// batchingOpts is the KV configuration under test: Cornflakes over UDP
// with 128 B values at the given burst cap.
func batchingOpts(sc Scale, burst int) kvOpts {
	return kvOpts{
		Sys:   driver.SysCornflakes,
		Gen:   workloads.NewYCSB(sc.StoreKeys, 128, 1),
		Batch: burst,
		Scale: sc,
		Seed:  11,
	}
}

// BatchPoint is one (burst cap, offered load) outcome, exposing the
// server's burst statistics and the NIC's doorbell accounting alongside
// the loadgen result.
type BatchPoint struct {
	Res   loadgen.Result
	Burst int
	// Batches and BatchedReqs are the server's drain statistics; their
	// ratio is the mean realized burst. MaxBatch is the largest burst any
	// single drain served.
	Batches, BatchedReqs uint64
	MaxBatch             int
	// TxDoorbells and TxFrames are the server port's post-time counters;
	// doorbells per frame is the TX amortization actually realized.
	TxDoorbells, TxFrames uint64
}

// MeanBurst returns the mean realized burst, 0 before any drain ran.
func (p BatchPoint) MeanBurst() float64 {
	if p.Batches == 0 {
		return 0
	}
	return float64(p.BatchedReqs) / float64(p.Batches)
}

// DoorbellsPerFrame returns TX doorbells per posted frame (1.0 on the
// unbatched path).
func (p BatchPoint) DoorbellsPerFrame() float64 {
	if p.TxFrames == 0 {
		return 0
	}
	return float64(p.TxDoorbells) / float64(p.TxFrames)
}

// BatchingAt runs one point of the burst × load grid.
func BatchingAt(sc Scale, burst int, rate float64) BatchPoint {
	o := batchingOpts(sc, burst)
	tb, srv, client := newKVTestbed(o)
	res := loadgen.Run(sc.withWindow(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: o.Gen, Client: client,
		RatePerS: rate,
		Seed:     o.Seed + 1,
	}))
	// Run the engine dry so queued bursts finish and the RX ring empties.
	tb.Eng.Run()
	port := tb.Server.Port
	return BatchPoint{
		Res: res, Burst: burst,
		Batches: srv.Batches, BatchedReqs: srv.BatchedReqs, MaxBatch: srv.MaxBatch,
		TxDoorbells: port.TxDoorbells, TxFrames: port.TxFrames,
	}
}

// fingerprint summarizes a point for the determinism check: every field
// that could move if the batched datapath ordered work differently.
func (p BatchPoint) fingerprint() string {
	return fmt.Sprintf("sent=%d completed=%d bad=%d achieved=%.6f p50=%d p99=%d max=%d batches=%d batched=%d maxbatch=%d doorbells=%d frames=%d",
		p.Res.Sent, p.Res.Completed, p.Res.BadResponses, p.Res.AchievedRps,
		p.Res.P50(), p.Res.P99(), p.Res.Latency.Max(),
		p.Batches, p.BatchedReqs, p.MaxBatch, p.TxDoorbells, p.TxFrames)
}

// Batching sweeps burst cap × offered load and checks the batched
// datapath's contract: capacity gain under overload, bounded low-load
// latency, visible adaptation, doorbell amortization, and determinism.
func Batching(sc Scale) *Report {
	r := &Report{
		ID:    "batching",
		Title: "Batched RX/TX datapath: burst cap × offered load",
		Header: []string{"burst", "offered rps", "goodput rps", "p50 µs", "p99 µs",
			"mean burst", "max burst", "doorbells/frame"},
	}
	capRps := kvCapacity(batchingOpts(sc, 1)).AchievedRps
	if !capacityOK(r, capRps) {
		return r
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"unbatched capacity estimate %.0f rps; sweep 0.2×–1.5×; burst caps %v",
		capRps, batchingBursts))

	rates := loadgen.GeometricRates(0.2*capRps, 1.5*capRps, sc.SweepPoints)
	lo, hi := 0, len(rates)-1

	// grid[burst index][rate index]; every cell is an independent testbed,
	// so the whole burst × rate grid fans out at once.
	grid := make([][]BatchPoint, len(batchingBursts))
	for bi := range grid {
		grid[bi] = make([]BatchPoint, len(rates))
	}
	forEach(sc.workers(), len(batchingBursts)*len(rates), func(i int) {
		bi, ri := i/len(rates), i%len(rates)
		grid[bi][ri] = BatchingAt(sc, batchingBursts[bi], rates[ri])
	})
	for bi, burst := range batchingBursts {
		for ri := range rates {
			p := grid[bi][ri]
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(burst),
				fmt.Sprintf("%.0f", p.Res.OfferedRps),
				fmt.Sprintf("%.0f", p.Res.AchievedRps),
				f1(p.Res.P50().Seconds() * 1e6),
				f1(p.Res.P99().Seconds() * 1e6),
				f2(p.MeanBurst()),
				fmt.Sprint(p.MaxBatch),
				f2(p.DoorbellsPerFrame()),
			})
		}
	}
	base, best := grid[0], grid[len(batchingBursts)-1]

	// 1. Capacity gain: at the deepest point of the ladder the widest
	// burst cap out-serves burst cap 1 by ≥ 10%.
	gain := pct(best[hi].Res.AchievedRps, base[hi].Res.AchievedRps)
	r.AddCheck("throughput: ≥10% goodput gain at 1.5× capacity with the widest burst",
		base[hi].Res.AchievedRps > 0 && gain >= 10,
		"burst %d: %.0f rps vs burst 1: %.0f rps (%+.1f%%)",
		best[hi].Burst, best[hi].Res.AchievedRps, base[hi].Res.AchievedRps, gain)

	// 2. Low-load latency: at 0.2× capacity the batched p99 stays within
	// 5% of the unbatched baseline.
	bp99, pp99 := base[lo].Res.P99(), best[lo].Res.P99()
	r.AddCheck("latency: low-load p99 within 5% of the unbatched baseline",
		bp99 > 0 && pp99 <= bp99+bp99/20,
		"burst %d: %v vs burst 1: %v", best[lo].Burst, pp99, bp99)

	// 3. Adaptation: bursts collapse toward 1 when there is no backlog and
	// grow under overload — the policy, observed rather than assumed.
	r.AddCheck("adaptive: bursts collapse at low load and grow past saturation",
		best[lo].MeanBurst() < 2 && best[hi].MeanBurst() > 2 && best[hi].MaxBatch > 2,
		"mean burst %.2f at 0.2×, %.2f (max %d) at 1.5×",
		best[lo].MeanBurst(), best[hi].MeanBurst(), best[hi].MaxBatch)

	// 4. Mechanism: the gain comes from amortization, so doorbells per
	// posted frame must fall well below the unbatched 1.0 at the deepest
	// point.
	r.AddCheck("doorbells: per-frame doorbells fall below 0.75 under overload",
		base[hi].DoorbellsPerFrame() > 0.99 && best[hi].DoorbellsPerFrame() < 0.75,
		"burst 1: %.2f, burst %d: %.2f",
		base[hi].DoorbellsPerFrame(), best[hi].Burst, best[hi].DoorbellsPerFrame())

	// 5. Determinism: the batched datapath replays exactly — same seeds,
	// same fingerprint, bit for bit.
	rerun := BatchingAt(sc, best[hi].Burst, rates[hi])
	f1p, f2p := best[hi].fingerprint(), rerun.fingerprint()
	r.AddCheck("determinism: re-running the deepest batched point reproduces it exactly",
		f1p == f2p, "%s", f1p)
	if f1p != f2p {
		r.Notes = append(r.Notes, "rerun fingerprint: "+f2p)
	}

	// On request (Scale.Trace / cf-bench -trace), re-run an overloaded
	// point with the tracing layer attached and the burst cap enabled, and
	// ship the export as an artifact: the per-request view of batch
	// assembly (queue spans ending at a shared drain instant) and of the
	// burst's replies, which post back to back at that instant.
	if sc.Trace {
		burst := batchingBursts[len(batchingBursts)-1]
		tr := TracedOverloadRun(sc, burst, rates[hi], trace.Config{
			SampleEvery: traceSampleEvery, SlowestK: traceSlowestK,
		})
		r.AddArtifact("batching-trace.json", tr.JSON)
		r.Notes = append(r.Notes, fmt.Sprintf(
			"trace artifact batching-trace.json: %d retained flows at %.0f rps, burst cap %d",
			len(tr.Tracer.Retained()), tr.Res.OfferedRps, burst))
	}

	return r
}
