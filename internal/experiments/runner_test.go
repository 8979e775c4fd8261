package experiments

import (
	"math"
	"testing"

	"cornflakes/internal/loadgen"
)

// The sweep reports every ladder point in order and picks the best by the
// paper's 95% rule, falling back to the highest achieved load when every
// point is overloaded — identically at any worker width.
func TestProbeSweep(t *testing.T) {
	// Synthetic server with capacity 100: achieved = min(offered, 100).
	p := probe(func(rate float64) (loadgen.Result, float64) {
		return loadgen.Result{OfferedRps: rate, AchievedRps: math.Min(rate, 100)}, 0
	})
	for _, workers := range []int{1, 4} {
		sc := Scale{Workers: workers}
		rates := []float64{50, 90, 100, 150, 300}
		points, best := p.sweep(sc, rates)
		if len(points) != len(rates) {
			t.Fatalf("workers=%d: %d points for %d rates", workers, len(points), len(rates))
		}
		for i, rate := range rates {
			if points[i].OfferedRps != rate {
				t.Errorf("workers=%d: point %d offered %v, want %v", workers, i, points[i].OfferedRps, rate)
			}
		}
		if best.AchievedRps != 100 || best.OfferedRps != 100 {
			t.Errorf("workers=%d: best = %v achieved at %v offered, want 100 at 100",
				workers, best.AchievedRps, best.OfferedRps)
		}
		// All overloaded: fall back to the first point with the highest
		// achieved load.
		_, best = p.sweep(sc, []float64{300, 400})
		if best.AchievedRps != 100 || best.OfferedRps != 300 {
			t.Errorf("workers=%d: fallback best = %v achieved at %v offered, want 100 at 300",
				workers, best.AchievedRps, best.OfferedRps)
		}
	}
}
