package loadgen

import (
	"math"
	"runtime"
	"testing"

	"cornflakes/internal/sim"
)

// TestRequestLifecycleAllocFree pins the load generator's steady state at
// no allocation of its own: every attempt costs exactly the echo fixture's
// two payloads, the client's request and the server's reply copy, whether
// the attempt arms a deadline, expires and is re-sent after a backoff, or
// races a hedge. Each flow binds its timer callbacks once, when it is
// built; a closure per attempt would read 3 or more here.
func TestRequestLifecycleAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		retry RetryPolicy
		hedge HedgePolicy
		// extra is whether requests take more than one attempt.
		extra bool
	}{
		{name: "no-retry"},
		{name: "deadline", retry: benchRetry},
		// The fixture's round trip is about 3 µs, so every attempt expires
		// and every request is re-sent twice.
		{name: "re-send", retry: RetryPolicy{Deadline: 2 * sim.Microsecond, MaxRetries: 2, Backoff: sim.Microsecond}, extra: true},
		// Every primary is raced by a hedge.
		{name: "hedge", retry: benchRetry, hedge: HedgePolicy{Delay: sim.Microsecond, Jitter: sim.Microsecond}, extra: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const warm, window = 5 * sim.Millisecond, 100 * sim.Millisecond
			f := newEchoFixture(sim.Microsecond)
			f.fillCachePages()
			ru := Start(Config{
				Eng: f.eng, EP: f.client, Gen: genConst{}, Client: idClient{pad: 56},
				RatePerS: 100_000, Warmup: warm, Measure: window, Seed: 1,
				Retry: tc.retry, Hedge: tc.hedge,
			})
			attempts := func() uint64 { return ru.res.Sent + ru.res.Retries + ru.res.Hedges }
			f.eng.RunUntil(warm) // grow the pools, maps and event free list
			a0, s0 := attempts(), ru.res.Sent
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			f.eng.RunUntil(warm + window)
			runtime.ReadMemStats(&m1)
			n, sent := attempts()-a0, ru.res.Sent-s0
			if sent < 5000 || (n > sent) != tc.extra {
				t.Fatalf("%d attempts for %d requests in the window", n, sent)
			}
			// Attempts in flight at either edge of the window shift the
			// count by a few allocations in tens of thousands.
			if per := float64(m1.Mallocs-m0.Mallocs) / float64(n); math.Abs(per-2) > 0.01 {
				t.Errorf("%.3f allocations per attempt over %d attempts, want the fixture's 2", per, n)
			}
		})
	}
}
