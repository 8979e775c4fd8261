package experiments

import (
	"fmt"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/driver"
	"cornflakes/internal/fabric"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// The cluster experiment: scale the single-server testbed out to a rack —
// n sharded KV servers and n clients behind one simulated ToR switch —
// and check that the composition holds up:
//
//  1. aggregate goodput scales with the node count at a fixed per-node
//     load (n=4 delivers ≥ 3× the n=1 goodput);
//  2. a Zipf-skewed workload concentrates load on the hot shard and
//     inflates its clients' tail latency relative to a balanced mix;
//  3. R=2 read spreading relieves the hot shard — lower worst-client p99
//     than the same skewed workload routed owner-only;
//  4. the switch misroutes nothing, and every client's accounting is
//     exact (sent = completed + shed + timed out + unresolved);
//  5. the whole grid is deterministic — serial and parallel sweeps
//     produce byte-identical reports (pinned by the fingerprint gate).
//
// Clients route by the same consistent-hash ring that placed the keys, so
// placement and routing cannot disagree; per-client wire-id spaces and
// retry-jitter sub-streams keep concurrent generators from aliasing.

// clusterNodeLadder returns the node-count ladder, capped by Scale.Cores:
// {1,2,4} at the test scale, {1,2,4,8} at full scale.
func clusterNodeLadder(sc Scale) []int {
	ladder := []int{1, 2, 4}
	if sc.Cores >= 8 {
		ladder = append(ladder, 8)
	}
	return ladder
}

// clusterRetry is the experiment's client retry policy: a deadline a few
// switch round-trips past the saturated-queue regime, with capped
// exponential backoff. Each client jitters from its own sub-stream.
func clusterRetry() loadgen.RetryPolicy {
	return loadgen.RetryPolicy{
		Deadline:   300 * sim.Microsecond,
		MaxRetries: 2,
		Backoff:    30 * sim.Microsecond,
		MaxBackoff: 240 * sim.Microsecond,
	}
}

// ClusterPoint is one (nodes, keyspace, per-client rate, theta, R) outcome.
type ClusterPoint struct {
	Nodes int
	Theta float64
	R     int
	// Results holds each client's loadgen result, in client order.
	Results []loadgen.Result
	// Handled[i] is shard i's handled-request count — the per-shard load
	// split the skew checks read.
	Handled   []uint64
	Misrouted uint64
	Drops     uint64
}

// AggGoodput sums the clients' achieved rates.
func (p ClusterPoint) AggGoodput() float64 {
	var agg float64
	for _, r := range p.Results {
		agg += r.AchievedRps
	}
	return agg
}

// AggOffered sums the clients' offered rates.
func (p ClusterPoint) AggOffered() float64 {
	var agg float64
	for _, r := range p.Results {
		agg += r.OfferedRps
	}
	return agg
}

// WorstP99 returns the worst per-client p99 over completed requests — the
// tail a skewed shard inflicts on the clients unlucky enough to hit it.
func (p ClusterPoint) WorstP99() sim.Time {
	var worst sim.Time
	for _, r := range p.Results {
		if v := r.P99(); v > worst {
			worst = v
		}
	}
	return worst
}

// TimeoutFrac returns timed-out measured requests over all sent.
func (p ClusterPoint) TimeoutFrac() float64 {
	var sent, to uint64
	for _, r := range p.Results {
		sent += r.Sent
		to += r.TimedOut
	}
	if sent == 0 {
		return 0
	}
	return float64(to) / float64(sent)
}

// EffectiveP99 is the censoring-robust tail: the completed-request p99 is
// survivor-biased once requests start timing out (the slow ones never
// complete, so the completed p99 can even shrink under overload). A timed
// out attempt is a latency of at least the retry deadline, so once more
// than 1% of requests time out the true p99 is at least that deadline.
func (p ClusterPoint) EffectiveP99() sim.Time {
	if d := clusterRetry().Deadline; p.TimeoutFrac() > 0.01 && d > p.WorstP99() {
		return d
	}
	return p.WorstP99()
}

// HotShare returns the hottest shard's fraction of all handled requests.
func (p ClusterPoint) HotShare() float64 {
	var total, hot uint64
	for _, h := range p.Handled {
		total += h
		if h > hot {
			hot = h
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hot) / float64(total)
}

// accountingExact reports whether every client's counters add up.
func (p ClusterPoint) accountingExact() bool {
	return disposalExact(p.Results...)
}

// ClusterAt runs one cluster point: nodes servers and nodes clients behind
// the switch, each client offering ratePerClient against a theta-skewed
// YCSB keyspace of nKeys keys, routed with R-way read spreading.
func ClusterAt(sc Scale, nodes, nKeys int, ratePerClient, theta float64, R int, seed uint64) ClusterPoint {
	gen := workloads.NewYCSBTheta(nKeys, 128, 1, theta)
	c := driver.NewClusterTestbed(nodes, nodes, driver.SysCornflakes,
		nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
	c.Preload(gen.Records(), R)

	cfgs := make([]loadgen.Config, nodes)
	for i := range cfgs {
		cfgs[i] = loadgen.Config{
			Eng: c.Eng, EP: c.Clients[i].UDP,
			Gen: gen, Client: c.NewClient(i, driver.SysCornflakes, R),
			RatePerS: ratePerClient,
			Warmup:   sim.Time(sc.WarmupMs) * sim.Millisecond,
			Measure:  sim.Time(sc.MeasureMs) * sim.Millisecond,
			Seed:     seed + uint64(i),
			ClientID: uint64(i + 1),
			Retry:    clusterRetry(),
			ShedID:   driver.ShedID,
		}
	}
	p := ClusterPoint{
		Nodes: nodes, Theta: theta, R: R,
		Results: loadgen.RunMany(cfgs),
	}
	for _, srv := range c.Servers {
		p.Handled = append(p.Handled, srv.Handled)
	}
	p.Misrouted = c.Switch.Misrouted()
	p.Drops = c.Switch.TotalStats().EgressDrops
	return p
}

// fingerprint summarizes a point for the determinism gate.
func (p ClusterPoint) fingerprint() string {
	s := fmt.Sprintf("n=%d theta=%.2f R=%d mis=%d drops=%d handled=%v",
		p.Nodes, p.Theta, p.R, p.Misrouted, p.Drops, p.Handled)
	for _, r := range p.Results {
		s += fmt.Sprintf(" [sent=%d done=%d shed=%d to=%d retr=%d p50=%d p99=%d]",
			r.Sent, r.Completed, r.Shed, r.TimedOut, r.Retries, r.P50(), r.P99())
	}
	return s
}

// clusterBalancedTheta is the near-uniform key skew for the scaling grid
// and the balanced control; clusterSkewTheta is the hot-shard workload.
const (
	clusterBalancedTheta = 0.3
	clusterSkewTheta     = 0.99
)

// The hot-shard triplet runs on a fixed stage — 4 nodes, a 400-key hot
// working set — at every scale. Hotspots are a property of the workload,
// not the store size: growing the keyspace with Scale would dilute the
// per-shard concentration the check is about.
const (
	clusterHotNodes = 4
	clusterHotKeys  = 400
)

// clusterHotFactor positions the triplet's per-client load: at 0.65× the
// per-node capacity the balanced split keeps every shard under its
// sustainable rate, while the Zipf-skewed split pushes the hottest shard
// past it — the regime where routing, not raw capacity, decides the tail.
const clusterHotFactor = 0.65

// Cluster sweeps node count × per-node load across the rack and checks
// scaling, hot-shard tails, read-spread relief, routing, and accounting.
func Cluster(sc Scale) *Report {
	r := &Report{
		ID:    "cluster",
		Title: "Cluster scale-out: sharded KV over a ToR switch",
		Header: []string{"nodes", "theta", "R", "offered/client rps", "agg goodput rps",
			"hot share", "eff p99 µs", "timeout %", "misrouted"},
	}

	// Per-node capacity probe: a 1-server, 1-client rack. The switch adds
	// two port hops and its latency, but capacity stays core-bound, so the
	// estimate transfers to every grid cell.
	capRes := capacityOf(func(rate float64) (loadgen.Result, *sim.Core) {
		gen := workloads.NewYCSBTheta(sc.StoreKeys, 128, 1, clusterBalancedTheta)
		c := driver.NewClusterTestbed(1, 1, driver.SysCornflakes,
			nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
		c.Preload(gen.Records(), 1)
		res := loadgen.Run(loadgen.Config{
			Eng: c.Eng, EP: c.Clients[0].UDP,
			Gen: gen, Client: c.NewClient(0, driver.SysCornflakes, 1),
			RatePerS: rate,
			Warmup:   sim.Time(sc.WarmupMs) * sim.Millisecond,
			Measure:  sim.Time(sc.MeasureMs) * sim.Millisecond,
			Seed:     41, ClientID: 1,
		})
		return res, c.Servers[0].N.Core
	}, 100_000)
	capRps := capRes.AchievedRps
	if capRps <= 0 {
		r.AddCheck("capacity: estimator produced a usable operating point", false,
			"capacity estimate %.0f rps", capRps)
		return r
	}

	ladder := clusterNodeLadder(sc)
	rates := loadgen.GeometricRates(0.3*capRps, 1.1*capRps, sc.SweepPoints)
	midRate := rates[(len(rates)-1)/2]
	r.Notes = append(r.Notes, fmt.Sprintf(
		"per-node capacity estimate %.0f rps; per-client load ladder 0.3×–1.1×; nodes %v",
		capRps, ladder))

	// The scaling grid: every (nodes, rate) cell is an independent rack on
	// a fresh engine, so the grid fans out across workers.
	grid := make([]ClusterPoint, len(ladder)*len(rates))
	forEach(sc.workers(), len(grid), func(i int) {
		ni, ri := i/len(rates), i%len(rates)
		grid[i] = ClusterAt(sc, ladder[ni], sc.StoreKeys, rates[ri], clusterBalancedTheta, 1, 61)
	})

	// The hot-shard triplet: a balanced control, the same load Zipf-skewed
	// onto the hot shard, and the skewed load again with R=3 read
	// spreading (R=2 leaves too much of the hot keys' traffic in place —
	// the owner keeps half, and ring geometry routes some of the other hot
	// keys' spread traffic right back into the hot shard).
	hotRate := clusterHotFactor * capRps
	hot := make([]ClusterPoint, 3)
	forEach(sc.workers(), len(hot), func(i int) {
		switch i {
		case 0:
			hot[i] = ClusterAt(sc, clusterHotNodes, clusterHotKeys, hotRate, clusterBalancedTheta, 1, 71)
		case 1:
			hot[i] = ClusterAt(sc, clusterHotNodes, clusterHotKeys, hotRate, clusterSkewTheta, 1, 71)
		case 2:
			hot[i] = ClusterAt(sc, clusterHotNodes, clusterHotKeys, hotRate, clusterSkewTheta, 3, 71)
		}
	})
	balanced, skewed, spread := hot[0], hot[1], hot[2]

	row := func(p ClusterPoint, ratePerClient float64) {
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(p.Nodes), f2(p.Theta), fmt.Sprint(p.R),
			fmt.Sprintf("%.0f", ratePerClient),
			fmt.Sprintf("%.0f", p.AggGoodput()),
			f2(p.HotShare()),
			f1(p.EffectiveP99().Seconds() * 1e6),
			f1(100 * p.TimeoutFrac()),
			fmt.Sprint(p.Misrouted),
		})
	}
	for i, p := range grid {
		row(p, rates[i%len(rates)])
	}
	for _, p := range hot {
		row(p, hotRate)
	}

	at := func(nodes int, ri int) ClusterPoint {
		for ni, n := range ladder {
			if n == nodes {
				return grid[ni*len(rates)+ri]
			}
		}
		return ClusterPoint{}
	}
	midIdx := (len(rates) - 1) / 2

	// 1. Scaling: at the fixed mid-ladder per-node load, 4 nodes deliver
	// ≥ 3× the single node's aggregate goodput.
	one, four := at(1, midIdx), at(4, midIdx)
	r.AddCheck("scaling: n=4 aggregate goodput ≥ 3× n=1 at fixed per-node load",
		one.AggGoodput() > 0 && four.AggGoodput() >= 3*one.AggGoodput(),
		"n=1: %.0f rps, n=4: %.0f rps (%.2f×) at %.0f rps/client",
		one.AggGoodput(), four.AggGoodput(),
		four.AggGoodput()/one.AggGoodput(), midRate)

	// 2. Hot shard: the same load that the balanced split absorbs cleanly
	// melts the hottest shard once Zipf-skewed — the timeout path engages
	// and the censoring-robust tail inflates well past the control's.
	r.AddCheck("hot shard: Zipf skew engages timeouts and inflates the effective p99 ≥ 2×",
		skewed.HotShare() > balanced.HotShare() &&
			skewed.TimeoutFrac() >= 0.05 && balanced.TimeoutFrac() < 0.01 &&
			skewed.EffectiveP99() >= 2*balanced.EffectiveP99(),
		"hot share %.2f vs %.2f balanced; timeouts %.1f%% vs %.1f%%; effective p99 %v vs %v",
		skewed.HotShare(), balanced.HotShare(),
		100*skewed.TimeoutFrac(), 100*balanced.TimeoutFrac(),
		skewed.EffectiveP99(), balanced.EffectiveP99())

	// 3. Relief: rotating reads across 3 replicas takes the hot shard back
	// under its sustainable rate — timeouts stop, goodput recovers, and
	// the tail comes back down.
	r.AddCheck("read spread: R=3 recovers goodput and halves the skewed effective p99",
		spread.TimeoutFrac() < 0.01 &&
			spread.AggGoodput() >= 1.2*skewed.AggGoodput() &&
			2*spread.EffectiveP99() <= skewed.EffectiveP99(),
		"timeouts %.1f%% → %.1f%%; goodput %.0f → %.0f rps; effective p99 %v → %v",
		100*skewed.TimeoutFrac(), 100*spread.TimeoutFrac(),
		skewed.AggGoodput(), spread.AggGoodput(),
		skewed.EffectiveP99(), spread.EffectiveP99())

	// 4. Routing: nothing misrouted anywhere on the grid, and the switch
	// kept up (no egress drops at these loads).
	var mis, drops uint64
	for _, p := range grid {
		mis += p.Misrouted
		drops += p.Drops
	}
	for _, p := range hot {
		mis += p.Misrouted
		drops += p.Drops
	}
	r.AddCheck("routing: zero misrouted frames across the whole grid",
		mis == 0, "%d misrouted, %d egress drops", mis, drops)

	// 5. Accounting: every client at every point resolves exactly.
	exact := true
	for _, p := range append(append([]ClusterPoint{}, grid...), hot...) {
		if !p.accountingExact() {
			exact = false
		}
	}
	addAccountingCheck(r, "grid + hot-shard points × per-node clients", exact, len(grid)+len(hot))

	return r
}
