// cluster: the sharded rack. One server is a microsecond-scale KV shard;
// a deployment is N of them behind a top-of-rack switch, with clients
// routing by the same consistent-hash ring that placed the keys. This
// demo shows the two things that composition has to get right.
//
// First, scaling: at a fixed per-node load, adding shards should add
// goodput almost linearly — the switch fans frames out to independent
// shards, so four nodes serve ~4× what one does.
//
// Second, skew: Zipf-popular keys concentrate on whichever shard owns
// them. The same aggregate load that a balanced mix absorbs cleanly
// pushes the hot shard past its sustainable rate — timeouts engage and
// the tail explodes — while every other shard idles. Rotating reads
// across R replicas takes the hot shard back under the line.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"fmt"

	"cornflakes/internal/experiments"
)

func main() {
	fmt.Println("Cluster: sharded KV over a simulated ToR switch")
	fmt.Println()

	sc := experiments.Quick()

	// Scaling: the same per-client load against 1, 2, and 4 shards (one
	// client per shard), all through the switch.
	fmt.Println("  nodes  offered/client rps  agg goodput rps  worst p99 µs")
	for _, n := range []int{1, 2, 4} {
		p := experiments.ClusterAt(sc, n, sc.StoreKeys, 800_000, 0.3, 1, 7)
		fmt.Printf("  %5d  %18.0f  %15.0f  %12.1f\n",
			n, 800_000.0, p.AggGoodput(), p.WorstP99().Seconds()*1e6)
	}
	fmt.Println()

	// Skew: balanced vs Zipf-hot vs Zipf-hot with R=3 read spreading, at
	// the same per-client rate on a 4-shard rack.
	fmt.Println("  workload          R  agg goodput rps  timeout %  eff p99 µs")
	for _, c := range []struct {
		name  string
		theta float64
		r     int
	}{
		{"balanced θ=0.30", 0.3, 1},
		{"skewed   θ=0.99", 0.99, 1},
		{"spread   θ=0.99", 0.99, 3},
	} {
		p := experiments.ClusterAt(sc, 4, 400, 1_850_000, c.theta, c.r, 7)
		fmt.Printf("  %s  %d  %15.0f  %9.1f  %10.1f\n",
			c.name, c.r, p.AggGoodput(), 100*p.TimeoutFrac(),
			p.EffectiveP99().Seconds()*1e6)
	}
	fmt.Println()

	// The full grid, as run by `go test ./internal/experiments -run
	// TestCluster` and `cf-bench -exp cluster`: node counts × a per-client
	// load ladder, plus the hot-shard triplet and its checks.
	rep := experiments.Cluster(sc)
	fmt.Println(rep)
}
