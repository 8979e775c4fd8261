package workloads

import (
	"math/rand/v2"
	"testing"
)

// TestNextAllocFree pins the generators' request path: a YCSB draw, a
// Google draw and a Twitter get hand out prebuilt key slices and allocate
// nothing. (A Twitter put still allocates its value.)
func TestNextAllocFree(t *testing.T) {
	tw := NewTwitter(1024, 1)
	tw.PutFrac = 0
	for _, g := range []Generator{NewYCSB(400, 128, 1), NewGoogle(400, 4, 1), tw} {
		r := rand.New(rand.NewPCG(1, 2))
		if allocs := testing.AllocsPerRun(1000, func() { g.Next(r) }); allocs != 0 {
			t.Errorf("%s: Next allocated %.2f allocs per request (want 0)", g.Name(), allocs)
		}
	}
}
