package loadgen

import (
	"runtime"
	"testing"

	"cornflakes/internal/sim"
)

// benchRetry is the KV bench workloads' retry policy. In an underloaded
// run its deadline never fires, so each request arms and cancels one
// deadline timer.
var benchRetry = RetryPolicy{
	Deadline: 300 * sim.Microsecond, MaxRetries: 2,
	Backoff: 30 * sim.Microsecond, MaxBackoff: 240 * sim.Microsecond,
}

// BenchmarkRequestLifecycle is the load generator's micro-benchmark: one
// request drawn, built, sent, echoed, matched and recorded, in an
// underloaded open-loop run (100 krps on a 1 µs echo fixture), without a
// retry policy and with the one every bench workload runs. An op is 10 µs
// of simulated time, one request on average, so ns/op is host time per
// request. Allocations are reported per completed request, allocs/req,
// from the heap's malloc count over the timed run, and include the
// payload the fixture's client builds and the copy its echo server sends
// back. go test's allocs/op would truncate the same count to 1 whenever
// req/op lands just below 1, so it is not reported.
func BenchmarkRequestLifecycle(b *testing.B) {
	for _, tc := range []struct {
		name  string
		retry RetryPolicy
	}{{"no-retry", RetryPolicy{}}, {"retry", benchRetry}} {
		b.Run(tc.name, func(b *testing.B) {
			f := newEchoFixture(sim.Microsecond)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			res := Run(Config{
				Eng: f.eng, EP: f.client, Gen: genConst{}, Client: idClient{pad: 56},
				RatePerS: 100_000, Measure: sim.Time(b.N) * 10 * sim.Microsecond, Seed: 1,
				Retry: tc.retry,
			})
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if res.BadResponses != 0 {
				b.Fatalf("%d bad responses", res.BadResponses)
			}
			b.ReportMetric(float64(res.Completed)/float64(b.N), "req/op")
			if res.Completed > 0 {
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(res.Completed), "allocs/req")
			}
		})
	}
}
