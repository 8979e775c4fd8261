package experiments

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Parallel sweep execution.
//
// Every sweep point in this package is measured on a freshly built
// driver.Testbed: its own sim.Engine, allocator, caches, meters, and
// tracer. Nothing mutable is shared between points — workload generators
// are immutable after construction, nic.Profile is a plain value, and
// there is no package-level RNG or counter — so independent points can run
// on separate host goroutines without synchronization. That is the
// isolation contract parallelism rests on (DESIGN.md §13); the race
// detector smoke in scripts/check.sh enforces it.
//
// Determinism is preserved by construction: each point's entire
// computation (including every floating-point operation) happens on one
// goroutine exactly as it would serially, and results land in a pre-sized
// slice at the point's index, so reports are assembled in loop order no
// matter which worker finished first. The fingerprint gate
// (determinism_test.go, scripts/check.sh) pins serial and parallel reports
// byte-identical.

// workers resolves the fan-out width for this scale: at least 1, and never
// more than useful.
func (sc Scale) workers() int {
	if sc.Workers <= 1 {
		return 1
	}
	return sc.Workers
}

// WorkersFromEnv resolves a fan-out width from the CF_PARALLEL environment
// variable: unset or 0 means GOMAXPROCS, 1 forces serial, anything else is
// the explicit width. bench_test.go and scripts/bench.sh use it to compare
// serial and parallel runs of the same suite.
func WorkersFromEnv() int {
	if v := os.Getenv("CF_PARALLEL"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for every i in [0, n), fanning the calls across up to
// w worker goroutines. Work is handed out by an atomic counter; callers
// write results into slot i of a pre-sized slice, which makes the merge
// order the loop order regardless of scheduling. It returns only when all
// calls have finished. With w ≤ 1 it degenerates to a plain loop on the
// calling goroutine.
func forEach(w, n int, fn func(i int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
