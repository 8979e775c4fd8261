package experiments

import (
	"fmt"

	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/sim"
	"cornflakes/internal/trace"
	"cornflakes/internal/workloads"
)

// The overload experiment: not a paper figure, but the robustness story
// behind one. The paper's throughput curves stop at the knee; this sweep
// pushes offered load to 2.5× the measured capacity and asserts the server
// degrades by policy rather than by accident. The degradation ladder under
// test, in the order it engages:
//
//  1. pressure-aware copy fallback — past Ctx.HighWater occupancy the
//     serializer demotes would-be zero-copy fields to copies, so responses
//     stop pinning store memory that overload would hold hostage;
//  2. admission control — past KVServer.ShedQueue / ShedWater the server
//     answers with an explicit ShedReply instead of queueing;
//  3. the bounded allocator — the hard cap TryAlloc enforces; the sweep
//     asserts peak occupancy never reaches past it;
//  4. client timeouts and retries — the loadgen's RetryPolicy disposes of
//     every request explicitly (completed / shed / timed out), never hangs.

// overloadHeadroom is the pinned-slot budget the server gets beyond its
// preloaded store: the working set for RX frames, queued requests and
// in-flight TX buffers. The fallback and shed thresholds below are set as
// fractions of this headroom so the ladder engages in order: copy fallback
// at 35%, queue shedding at 60% of the headroom expressed as queue depth,
// and occupancy shedding at 85% as a backstop before the hard cap.
const overloadHeadroom = 192

// overloadRetry is the client-side policy for the sweep: one virtual-time
// deadline per attempt, two retries with capped exponential backoff.
var overloadRetry = loadgen.RetryPolicy{
	Deadline:   500 * sim.Microsecond,
	MaxRetries: 2,
	Backoff:    100 * sim.Microsecond,
	MaxBackoff: 400 * sim.Microsecond,
}

// overloadOpts is the KV configuration under test: Cornflakes over UDP with
// 1 KiB values — comfortably above the zero-copy threshold, so the copy
// fallback is a real demotion, not a no-op.
func overloadOpts(sc Scale) kvOpts {
	return kvOpts{
		Sys:   driver.SysCornflakes,
		Gen:   workloads.NewYCSB(sc.StoreKeys, 1024, 1),
		Scale: sc,
		Seed:  7,
	}
}

// OverloadPoint is one sweep point's outcome, exposing the server-side
// gauges alongside the loadgen result.
type OverloadPoint struct {
	Res loadgen.Result
	// BaseSlots is pinned occupancy right after preload; CapSlots the hard
	// cap (base + headroom); PeakSlots the high-water mark over the run;
	// FinalSlots occupancy after drain (== BaseSlots iff nothing leaked).
	BaseSlots, CapSlots, PeakSlots, FinalSlots int64
	// Fallbacks counts fields the serializer demoted to copy encoding under
	// pressure; Shed counts admission-control rejections (server-side, so
	// warmup traffic is included); AllocFailures counts TryAlloc refusals.
	Fallbacks, Shed, ShedReplyErrs, AllocFailures uint64
}

// newOverloadTestbed builds a fresh capped KV testbed with the
// graceful-degradation thresholds derived from its post-preload baseline —
// the shared setup of the overload sweep and the traced overload run. It
// returns the baseline occupancy and the hard cap alongside the testbed.
func newOverloadTestbed(o kvOpts) (tb *driver.Testbed, srv *driver.KVServer,
	client *driver.KVClient, base, capSlots int64) {
	tb, srv, client = newKVTestbed(o)
	base = tb.Server.Alloc.Stats().SlotsInUse
	capSlots = base + overloadHeadroom
	tb.Server.Alloc.SetCap(capSlots)
	tb.Server.Ctx.HighWater = float64(base+overloadHeadroom*35/100) / float64(capSlots)
	srv.ShedQueue = overloadHeadroom * 60 / 100
	srv.ShedWater = float64(base+overloadHeadroom*85/100) / float64(capSlots)
	return tb, srv, client, base, capSlots
}

// OverloadAt runs one offered-load point of the overload sweep: a fresh
// capped server, thresholds derived from its post-preload baseline, and a
// retrying client that classifies shed replies.
func OverloadAt(sc Scale, rate float64) OverloadPoint {
	o := overloadOpts(sc)
	tb, srv, client, base, capSlots := newOverloadTestbed(o)

	res := loadgen.Run(sc.withWindow(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: o.Gen, Client: client,
		RatePerS: rate,
		Seed:     o.Seed + 1,
		Retry:    overloadRetry,
		ShedID:   driver.ShedID,
	}))
	// Run the engine dry past the loadgen's own drain: the server queue
	// finishes whatever it had admitted (deep-overload jobs carry large
	// metered backlogs) and every buffer returns to the pool.
	tb.Eng.Run()

	st := tb.Server.Alloc.Stats()
	return OverloadPoint{
		Res:       res,
		BaseSlots: base, CapSlots: capSlots,
		PeakSlots: st.PeakSlotsInUse, FinalSlots: st.SlotsInUse,
		Fallbacks: tb.Server.Ctx.Fallbacks,
		Shed:      srv.Shed, ShedReplyErrs: srv.ShedReplyErrs,
		AllocFailures: st.AllocFailures,
	}
}

// Overload sweeps offered load from well under to 2.5× the measured
// capacity and checks the graceful-degradation contract at every point.
func Overload(sc Scale) *Report {
	r := &Report{
		ID:    "overload",
		Title: "Graceful degradation under overload (bounded pool, copy fallback, shedding, retries)",
		Header: []string{"offered rps", "goodput rps", "p99 µs", "shed %", "timeout %",
			"fallbacks", "peak slots", "cap slots"},
	}
	o := overloadOpts(sc)
	capRps := kvCapacity(o).AchievedRps
	if !capacityOK(r, capRps) {
		return r
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("capacity estimate %.0f rps; sweep 0.3×–2.5×; headroom %d slots over the preloaded base",
			capRps, overloadHeadroom),
		fmt.Sprintf("client retry policy: deadline %v, %d retries, backoff %v capped at %v",
			overloadRetry.Deadline, overloadRetry.MaxRetries, overloadRetry.Backoff, overloadRetry.MaxBackoff))

	rates := loadgen.GeometricRates(0.3*capRps, 2.5*capRps, sc.SweepPoints)
	// Each ladder point is a fresh testbed; fan them out in rate order.
	points := make([]OverloadPoint, len(rates))
	forEach(sc.workers(), len(rates), func(i int) {
		points[i] = OverloadAt(sc, rates[i])
	})

	shedRate := func(p OverloadPoint) float64 {
		if p.Res.Sent == 0 {
			return 0
		}
		return float64(p.Res.Shed) / float64(p.Res.Sent)
	}
	timeoutRate := func(p OverloadPoint) float64 {
		if p.Res.Sent == 0 {
			return 0
		}
		return float64(p.Res.TimedOut) / float64(p.Res.Sent)
	}
	for _, p := range points {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.0f", p.Res.OfferedRps),
			fmt.Sprintf("%.0f", p.Res.AchievedRps),
			f1(p.Res.P99().Seconds() * 1e6),
			f1(shedRate(p) * 100),
			f1(timeoutRate(p) * 100),
			fmt.Sprint(p.Fallbacks),
			fmt.Sprint(p.PeakSlots),
			fmt.Sprint(p.CapSlots),
		})
	}

	// 1. The hard bound held: peak pinned occupancy never exceeded the cap.
	bounded := true
	var worstPeak, capSlots int64
	for _, p := range points {
		capSlots = p.CapSlots
		if p.PeakSlots > worstPeak {
			worstPeak = p.PeakSlots
		}
		if p.PeakSlots > p.CapSlots {
			bounded = false
		}
	}
	r.AddCheck("bounded: peak pinned slots stayed within the cap at every point",
		bounded, "worst peak %d of cap %d", worstPeak, capSlots)

	// 2. Exact disposal: every measured request ended explicitly.
	accounted := true
	for _, p := range points {
		res := p.Res
		if res.Sent != res.Completed+res.Shed+res.TimedOut || res.Unresolved != 0 {
			accounted = false
			r.Notes = append(r.Notes, fmt.Sprintf(
				"unaccounted at %.0f rps: sent=%d completed=%d shed=%d timedout=%d unresolved=%d",
				res.OfferedRps, res.Sent, res.Completed, res.Shed, res.TimedOut, res.Unresolved))
		}
	}
	r.AddCheck("accounting: sent == completed + shed + timed-out at every point, none unresolved",
		accounted, "%d points", len(points))

	// 3. No leaks: after drain the pool is back to its preloaded baseline.
	drained := true
	for _, p := range points {
		if p.FinalSlots != p.BaseSlots {
			drained = false
			r.Notes = append(r.Notes, fmt.Sprintf(
				"leak at %.0f rps: %d slots above the %d baseline after drain",
				p.Res.OfferedRps, p.FinalSlots-p.BaseSlots, p.BaseSlots))
		}
	}
	r.AddCheck("safety: pinned occupancy drained back to the preloaded baseline",
		drained, "%d points", len(points))

	// 4. Shedding ramps with load instead of oscillating: the shed rate is
	// monotone non-decreasing along the ladder (small tolerance for the
	// Poisson noise of short measurement windows).
	monotone := true
	for i := 1; i < len(points); i++ {
		if shedRate(points[i]) < shedRate(points[i-1])-0.02 {
			monotone = false
		}
	}
	r.AddCheck("degradation: shed rate is monotone non-decreasing in offered load",
		monotone, "%.1f%% → %.1f%%", shedRate(points[0])*100, shedRate(points[len(points)-1])*100)

	// 5. The ladder actually engaged: every point past capacity demoted
	// fields to copies and shed load, and at the first point past the knee
	// (before per-packet RX cost alone saturates the core — receive
	// livelock, which no single-core admission control can beat) the server
	// still delivered real goodput alongside the shedding.
	engaged, servedPastKnee := true, false
	first := true
	for _, p := range points {
		if p.Res.OfferedRps <= capRps {
			continue
		}
		if p.Fallbacks == 0 || shedRate(p) == 0 {
			engaged = false
		}
		if first && p.Res.Completed > 0 {
			servedPastKnee = true
		}
		first = false
	}
	top := points[len(points)-1]
	r.AddCheck("degradation: every past-capacity point engaged copy fallback and shedding",
		engaged, "top point: fallbacks=%d shed=%.1f%% timeout=%.1f%%",
		top.Fallbacks, shedRate(top)*100, timeoutRate(top)*100)
	r.AddCheck("degradation: goodput continued at the first past-capacity point",
		servedPastKnee, "capacity %.0f rps", capRps)

	// On request (Scale.Trace / cf-bench -trace), re-run the deepest
	// overload point with the tracing layer attached and ship the export as
	// a report artifact — the per-request view of the shed/retry ladder the
	// table above aggregates away.
	if sc.Trace {
		tr := TracedOverloadRun(sc, 0, rates[len(rates)-1], trace.Config{
			SampleEvery: traceSampleEvery, SlowestK: traceSlowestK,
		})
		r.AddArtifact("overload-trace.json", tr.JSON)
		r.Notes = append(r.Notes, fmt.Sprintf(
			"trace artifact overload-trace.json: %d retained flows at %.0f rps",
			len(tr.Tracer.Retained()), tr.Res.OfferedRps))
	}

	return r
}
