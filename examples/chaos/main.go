// chaos: the rack under fire. A deployment's interesting failures are not
// clean stops — shards crash mid-burst and reboot with cold caches, switch
// ports flap, and gray nodes keep answering at 6× their healthy service
// time, too slow to use but never slow enough to be declared dead.
//
// This demo shows the two client-side defenses the chaos experiment
// checks. Failover routing sends attempt k of a request to replica
// (rotation+k) mod R, so a retry is guaranteed to land away from the shard
// that just ate its predecessor. Hedged requests fire a second copy at a
// different replica once an attempt outlives the healthy tail, and the
// first reply wins — the only defense that helps against gray failure,
// where nothing ever times out decisively.
//
// Every frame is audited: posted == delivered + wire-dropped + corrupted +
// downed-port + host-down, exactly, through any storm.
//
// Run with:
//
//	go run ./examples/chaos
package main

import (
	"fmt"

	"cornflakes/internal/experiments"
)

func main() {
	fmt.Println("Chaos: crash/recovery, port flaps and gray failure on the rack")
	fmt.Println()

	sc := experiments.Quick()

	// Kill one of four shards mid-run, recover it cold, and watch goodput
	// over time: the completions-per-bucket trace dips while the shard is
	// dead and re-converges after recovery.
	fmt.Println("  kill-one-shard point (failover routing on):")
	p := experiments.ChaosCrashPoint(sc, 250_000, true)
	fmt.Printf("    crashes/recoveries: %d/%d   work killed by the crash: %d reqs + %d frames\n",
		p.Sched.Crashes, p.Sched.Recoveries, p.DownDrops, p.Ledger.HostDownDrops)
	fmt.Printf("    goodput trace (completions per %d-slice of the window):\n      ", len(p.Buckets))
	for _, b := range p.Buckets {
		fmt.Printf("%6d", b)
	}
	fmt.Println()
	quarter := len(p.Buckets) / 4
	mean := func(lo, hi int) float64 {
		var s uint64
		for _, v := range p.Buckets[lo:hi] {
			s += v
		}
		return float64(s) / float64(hi-lo)
	}
	fmt.Printf("    pre-crash mean %.0f/bucket, final-quarter mean %.0f/bucket\n",
		mean(0, quarter), mean(len(p.Buckets)-quarter, len(p.Buckets)))
	fmt.Printf("    frame conservation gap: %d (zero = no silent loss)\n", p.SilentLoss())
	fmt.Println()

	// The same crash without failover: retries re-hit the dead owner until
	// it recovers, so more of them exhaust their deadline ladder.
	ctl := experiments.ChaosCrashPoint(sc, 250_000, false)
	var foTimeouts, ctlTimeouts uint64
	for _, r := range p.Results {
		foTimeouts += r.TimedOut
	}
	for _, r := range ctl.Results {
		ctlTimeouts += r.TimedOut
	}
	fmt.Printf("  same crash, no failover: %d timeouts vs %d with failover\n",
		ctlTimeouts, foTimeouts)
	fmt.Println()

	// The full scenario set, as run by `go test ./internal/experiments
	// -run TestChaos` and `cf-bench -exp chaos`: the crash ladder, a two-port
	// flap storm composed with a lossy/corrupting client link, and the
	// gray-failure triplet where hedging recovers the tail that plain
	// timeouts cannot.
	rep := experiments.Chaos(sc)
	fmt.Println(rep)
}
