// trace: where did the microseconds go? The paper's argument is made with
// cycle breakdowns (Fig 9–11), but run-level aggregates cannot explain a
// p99 outlier — was it queueing, a lost frame, a shed-and-retry ladder, or
// a copy fallback? This demo attaches the per-request tracing layer to an
// overloaded Cornflakes KV server, prints the span timelines of the
// slowest requests, and writes the whole run as a Chrome trace-event file
// you can open in chrome://tracing or https://ui.perfetto.dev.
//
// Run with:
//
//	go run ./examples/trace
package main

import (
	"fmt"
	"os"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/experiments"
	"cornflakes/internal/trace"
)

func main() {
	fmt.Println("Trace: per-request span timelines under overload")
	fmt.Println()

	// One traced run at a rate well past the Quick-scale capacity: plenty
	// of queueing, shedding and retries to look at. Retain 1 in 8 measured
	// requests plus the 5 slowest.
	sc := experiments.Quick()
	run := experiments.TracedOverloadRun(sc, 0, 2_000_000, trace.Config{
		SampleEvery: 8, SlowestK: 5,
	})
	res := run.Res
	fmt.Printf("offered %.0f rps: %d sent, %d completed, %d shed, %d timed out, %d retries\n",
		res.OfferedRps, res.Sent, res.Completed, res.Shed, res.TimedOut, res.Retries)
	fmt.Printf("retained %d of %d measured flows (sampling keeps memory bounded; the\n",
		len(run.Tracer.Retained()), res.Sent)
	fmt.Println("slowest are always kept — the tail is what a breakdown exists to explain)")
	fmt.Println()

	// The slowest requests, phase by phase. Every timeline is gapless and
	// sums exactly to the request's end-to-end latency: the simulator's
	// virtual clock is exact, so the accounting is too.
	for _, f := range run.Tracer.Slowest() {
		fmt.Println(trace.Summary(f))
		for _, s := range f.Spans() {
			fmt.Printf("  %-14s %10v  (at %v)\n", s.Label, s.Dur(), s.Start)
		}
		for _, n := range f.Notes {
			fmt.Printf("  note: %s\n", n)
		}
	}
	fmt.Println()

	// The tracer aggregates every server receipt — retained or not — so its
	// run-level cycle breakdown matches the server's own accounting exactly.
	agg, n := run.Tracer.Aggregate()
	fmt.Printf("cycle breakdown over %d handled requests (== server accounting: %v):\n",
		n, agg == run.RunReceipt)
	for cat, cy := range agg.Cycles {
		if cy > 0 {
			fmt.Printf("  %-12v %14.0f cycles\n", costmodel.Category(cat), cy)
		}
	}
	fmt.Println()

	const out = "trace.json"
	if err := os.WriteFile(out, run.JSON, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d bytes) — open it in chrome://tracing or ui.perfetto.dev:\n",
		out, len(run.JSON))
	fmt.Println("one track per retained request, a parallel track of per-category CPU")
	fmt.Println("receipts, and counter tracks for the server's health gauges (occupancy,")
	fmt.Println("queue depth, shed and fallback counts) sampled every 100 µs.")
}
