// batching: the batched RX/TX datapath, shown at the two ends of its
// trade. A NIC doorbell and a per-packet RX poll cost the same whether
// they move one packet or thirty-two, so a server with backlog should
// amortize them — ring the TX doorbell once per burst of gather lists,
// charge the RX poll once per drain. The catch is latency: a server that
// waits to fill batches punishes light load. The adaptive policy here
// never waits — each drain serves exactly the backlog that exists, up to
// the cap — so bursts collapse to one when the queue is empty and grow on
// their own past saturation.
//
// This demo runs the same configuration at the same three offered loads
// with batching off (burst cap 1, the default one-request drain) and on
// (cap 16), and prints goodput, p99 and the realized burst sizes side by
// side. Then it runs the full sweep with its contract checks.
//
// Run with:
//
//	go run ./examples/batching
package main

import (
	"fmt"

	"cornflakes/internal/experiments"
)

func main() {
	fmt.Println("Batching: adaptive RX/TX bursts — amortization without a latency tax")
	fmt.Println()

	// Three operating points: light load, near the knee, and deep
	// overload. Burst cap 1 is the unbatched baseline.
	fmt.Println("  offered rps   burst  goodput rps  p99 µs  mean burst  doorbells/frame")
	sc := experiments.Quick()
	for _, rate := range []float64{50_000, 2_000_000, 6_000_000} {
		for _, burst := range []int{1, 16} {
			p := experiments.BatchingAt(sc, burst, rate)
			fmt.Printf("  %11.0f  %6d  %11.0f  %6.1f  %10.2f  %15.2f\n",
				p.Res.OfferedRps, burst, p.Res.AchievedRps,
				p.Res.P99().Seconds()*1e6, p.MeanBurst(), p.DoorbellsPerFrame())
		}
	}
	fmt.Println()

	// The full grid, as run by `go test ./internal/experiments -run
	// TestBatching` and `cf-bench -exp batching`: burst caps {1,4,16} against a
	// geometric load ladder from 0.2× to 1.5× of the measured capacity.
	rep := experiments.Batching(sc)
	fmt.Println(rep)

	if len(rep.Failed()) > 0 {
		fmt.Println("batching contract violated — see failed checks above")
		return
	}
	fmt.Println("Under overload the wide burst cap buys double-digit goodput from")
	fmt.Println("doorbell and poll amortization alone; at light load the bursts")
	fmt.Println("collapse to one and the p99 tracks the unbatched baseline. The")
	fmt.Println("burst size is not a tuning knob to get wrong — it is an upper")
	fmt.Println("bound the backlog fills on its own.")
}
