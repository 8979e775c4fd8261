package experiments

import (
	"encoding/json"
	"fmt"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/sim"
	"cornflakes/internal/trace"
)

// The trace experiment: run the overload configuration at 1.5× measured
// capacity with the per-request tracing layer attached end to end, and
// check the tracer's core contracts against the run's own accounting:
//
//  1. exactness — every retained flow's span timeline is gapless and sums
//     to its end-to-end latency to the picosecond;
//  2. tail capture — the K slowest measured requests are retained even at
//     1-in-N sampling, and the slowest retained flow is at least as slow
//     as the latency histogram's observed maximum;
//  3. receipt conservation — summing the tracer's per-request receipts
//     reproduces the server's run-level Fig 11 cycle breakdown exactly
//     (same floats, not approximately);
//  4. the overload machinery actually engaged (sheds happened and were
//     metered under their own CatShed category);
//  5. the exported Chrome trace-event document is valid JSON.
//
// The report's table is the phase-time breakdown over retained flows — the
// where-did-the-microseconds-go view the tracer exists to provide — and
// the export itself is attached as a report artifact.

// Tracing parameters for the experiment: retain 1 in 16 measured flows
// plus the 8 slowest, and snapshot the server gauges every 100 µs.
const (
	traceSampleEvery = 16
	traceSlowestK    = 8
)

const traceGaugeEvery = 100 * sim.Microsecond

// TracedRun bundles one traced overload run's outputs.
type TracedRun struct {
	Res    loadgen.Result
	Tracer *trace.Tracer
	Reg    *trace.Registry
	// JSON is the Chrome trace-event export of the run.
	JSON []byte
	// RunReceipt and RunReceipts are the ground truth the tracer's
	// aggregate is checked against: an independent KVServer.OnReceipt
	// accumulator over every request the server handled.
	RunReceipt  costmodel.Receipt
	RunReceipts uint64
}

// TracedOverloadRun runs one offered-load point of the overload
// configuration with a tracer wired through every layer: the loadgen marks
// sends, backoffs and outcomes; the NIC observers mark DMA, wire and
// delivery instants; the server marks dispatch and shed decisions and
// attributes per-request receipts; and a gauge registry samples server
// health at a fixed cadence. burst is the server's drain burst cap
// (kvOpts.Batch; 0 and 1 keep the default one-request drain).
func TracedOverloadRun(sc Scale, burst int, rate float64, tcfg trace.Config) TracedRun {
	o := overloadOpts(sc)
	o.Batch = burst
	tb, srv, client, _, _ := newOverloadTestbed(o)

	tcfg.CPU = tb.Server.Meter.CPU
	tr := trace.New(tcfg)
	driver.AttachKVTracer(tb, srv, tr)

	var out TracedRun
	srv.OnReceipt = func(r costmodel.Receipt) {
		out.RunReceipt.Add(r)
		out.RunReceipts++
	}

	reg := trace.NewRegistry()
	driver.RegisterServerGauges(reg, srv)
	w, m := sc.window()
	reg.SampleUntil(tb.Eng, traceGaugeEvery, w+m)

	out.Res = loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: o.Gen, Client: client,
		RatePerS: rate,
		Warmup:   w,
		Measure:  m,
		Seed:     o.Seed + 1,
		Retry:    overloadRetry,
		ShedID:   driver.ShedID,
		Tracer:   tr,
	})
	// Drain as the untraced overload points do, so queued work finishes and
	// every late receipt reaches both accumulators before export.
	tb.Eng.Run()

	out.Tracer = tr
	out.Reg = reg
	out.JSON = trace.Export(tr, reg)
	return out
}

// tracePhases is the fixed display order for the phase breakdown table.
var tracePhases = []string{
	"pre", trace.PhaseSend, trace.PhaseReqWire, trace.PhaseReqProp,
	trace.PhaseQueue, trace.PhaseHandle, trace.PhaseShed,
	trace.PhaseRspWire, trace.PhaseRspProp, trace.PhaseBackoff, "untraced",
}

// tileError checks one flow's span-tiling invariant and returns a
// description of the first violation, or "" when the timeline is gapless
// and sums exactly to the flow's end-to-end latency.
func tileError(f *trace.Flow) string {
	spans := f.Spans()
	if len(spans) == 0 {
		return "no spans"
	}
	if spans[0].Start != f.Start {
		return fmt.Sprintf("first span starts at %v, flow at %v", spans[0].Start, f.Start)
	}
	if spans[len(spans)-1].End != f.End {
		return fmt.Sprintf("last span ends at %v, flow at %v", spans[len(spans)-1].End, f.End)
	}
	var sum sim.Time
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Sprintf("span %d (%s) has negative length", i, s.Label)
		}
		if i > 0 && s.Start != spans[i-1].End {
			return fmt.Sprintf("gap before span %d (%s)", i, s.Label)
		}
		sum += s.Dur()
	}
	if sum != f.Dur() {
		return fmt.Sprintf("spans sum to %v, latency is %v", sum, f.Dur())
	}
	return ""
}

// TraceExp is the "trace" experiment.
func TraceExp(sc Scale) *Report {
	r := &Report{
		ID:     "trace",
		Title:  "Per-request span timelines under overload (tracing layer contracts)",
		Header: []string{"phase", "spans", "total µs", "mean µs", "share %"},
	}
	o := overloadOpts(sc)
	capRps := kvCapacity(o).AchievedRps
	if !capacityOK(r, capRps) {
		return r
	}
	rate := 1.5 * capRps
	run := TracedOverloadRun(sc, 0, rate, trace.Config{
		SampleEvery: traceSampleEvery, SlowestK: traceSlowestK,
	})
	retained := run.Tracer.Retained()

	// Phase breakdown over retained flows.
	count := map[string]int{}
	total := map[string]sim.Time{}
	var grand sim.Time
	for _, f := range retained {
		for _, s := range f.Spans() {
			count[s.Label]++
			total[s.Label] += s.Dur()
			grand += s.Dur()
		}
	}
	for _, ph := range tracePhases {
		n := count[ph]
		if n == 0 {
			continue
		}
		tot := total[ph]
		r.Rows = append(r.Rows, []string{
			ph,
			fmt.Sprint(n),
			f1(tot.Seconds() * 1e6),
			f2(tot.Seconds() * 1e6 / float64(n)),
			f1(float64(tot) / float64(grand) * 100),
		})
	}

	r.Notes = append(r.Notes,
		fmt.Sprintf("capacity estimate %.0f rps; traced at %.0f rps (1.5×); sampling 1/%d + slowest %d",
			capRps, rate, traceSampleEvery, traceSlowestK),
		fmt.Sprintf("retained %d of %d measured flows; %d dropped marks (late/duplicate frames)",
			len(retained), run.Res.Sent, run.Tracer.DroppedMarks))
	for i, f := range run.Tracer.Slowest() {
		if i >= 3 {
			break
		}
		r.Notes = append(r.Notes, "slowest: "+trace.Summary(f))
	}

	// 1. Exactness: every retained timeline is gapless and sums to its
	// end-to-end latency with no rounding at all (the virtual clock is
	// exact, so the contract is equality, not within-a-bucket).
	bad := 0
	for _, f := range retained {
		if msg := tileError(f); msg != "" {
			bad++
			r.Notes = append(r.Notes, fmt.Sprintf("tiling violation in req %d: %s", f.Seq, msg))
		}
	}
	r.AddCheck("exact: every retained span timeline is gapless and sums to its latency",
		bad == 0, "%d of %d flows violate", bad, len(retained))

	// 2. Tail capture: the slowest-K heap is full and its head is at least
	// as slow as the completed-latency histogram's observed maximum (the
	// tracer also sees shed and timed-out flows, which can only be slower).
	slow := run.Tracer.Slowest()
	tail := len(slow) == traceSlowestK && slow[0].Dur() >= run.Res.Latency.Max()
	var slowest sim.Time
	if len(slow) > 0 {
		slowest = slow[0].Dur()
	}
	r.AddCheck("tail: slowest-K retained despite 1/N sampling, covering the observed max",
		tail, "kept %d, slowest %v vs histogram max %v", len(slow), slowest, run.Res.Latency.Max())

	// 3. Receipt conservation: the tracer fed every server receipt into its
	// aggregate exactly once, so it must equal the independent OnReceipt
	// accumulator float-for-float — the run-level Fig 11 breakdown.
	agg, n := run.Tracer.Aggregate()
	r.AddCheck("receipts: tracer aggregate reproduces the run-level cycle breakdown exactly",
		agg == run.RunReceipt && n == run.RunReceipts,
		"%d receipts, %.0f cycles (accumulator: %d, %.0f)",
		n, agg.Total(), run.RunReceipts, run.RunReceipt.Total())

	// 4. The overload machinery engaged, and its work was metered under its
	// own category rather than polluting a neighbour's bucket.
	r.AddCheck("overload: shedding engaged and was metered under its own category",
		run.Res.Shed > 0 && agg.Cycles[costmodel.CatShed] > 0,
		"shed %d requests, %.0f shed-category cycles",
		run.Res.Shed, agg.Cycles[costmodel.CatShed])

	// 5. The export is a well-formed Chrome trace-event document.
	r.AddCheck("export: Chrome trace-event document is valid JSON",
		json.Valid(run.JSON), "%d bytes, %d gauge samples",
		len(run.JSON), len(run.Reg.Samples()))

	r.AddArtifact("trace.json", run.JSON)
	return r
}
