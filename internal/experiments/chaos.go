package experiments

import (
	"fmt"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/driver"
	"cornflakes/internal/fabric"
	"cornflakes/internal/faults"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// The chaos experiment: hurt the PR 6 rack on purpose and check the
// system survives with its books balanced. Three scenarios on the 4-node
// sharded cluster:
//
//  1. Kill-one-shard ladder: crash a shard mid-window, restart it cold a
//     quarter-window later. Failover routing must keep aggregate goodput
//     flowing (retries rotate to live replicas instead of re-hitting the
//     corpse) and goodput must re-converge to ≥ 90% of its pre-crash
//     level by the last quarter of the window. A no-failover control at
//     the same load shows what attempt-blind retries cost.
//  2. Flap storm: two server switch ports flap down/up repeatedly while a
//     lossy, corrupting client link runs underneath. Every frame the storm
//     eats must be counted somewhere — downed-port, wire drop, FCS — with
//     the topology-wide conservation ledger exactly balanced.
//  3. Gray-failure triplet: one node serves at 6× cost instead of dying —
//     the failure plain timeouts handle worst, because the node never
//     fails decisively. Timeout-only routing pays deadline-scale effective
//     p99; hedged requests (second copy to a different replica after a
//     short delay, first reply wins) must cut it ≥ 2× at equal offered
//     load, with exact launched/won/wasted hedge accounting.
//
// Everything is seed-replayable: the fault plan's transitions, the hedge
// jitter, and the routing are all drawn from forked sim.Rand streams, so
// the same storm replays bit for bit (pinned by the fingerprint gate and
// an in-experiment same-seed rerun check).

// chaosBuckets slices the measurement window for the goodput-over-time
// trace the recovery check reads.
const chaosBuckets = 16

// chaosNodes/chaosR fix the stage: 4 shards, R-way replication wide
// enough that every key has a live replica when one node dies.
const (
	chaosNodes = 4
	chaosR     = 2
)

// chaosShedQueue arms PR 2's admission control on every chaos server.
// Under a crash, timed-out attempts re-arrive as retries at the surviving
// replicas; without a queue bound the survivors burn their capacity
// serving work whose client already gave up, and the retry storm is
// self-sustaining (a metastable failure — goodput stays at zero after the
// trigger clears). Shedding keeps queue sojourn under the client deadline,
// so served work is fresh and the rack re-converges after recovery. Sized
// to roughly half a deadline of service backlog.
const chaosShedQueue = 512

// chaosCfg parameterizes one chaos point.
type chaosCfg struct {
	sc            Scale
	nKeys         int
	ratePerClient float64
	theta         float64
	R             int
	seed          uint64
	failover      bool
	hedge         loadgen.HedgePolicy
	plan          faults.NodeFaultPlan
	// linkFault, when non-nil, attaches the link-level injector to client
	// 0's uplink (endpoint port ↔ switch-side port), composing wire faults
	// with the fabric topology.
	linkFault *faults.Plan
}

// ChaosPoint is one chaos scenario outcome: a ClusterPoint plus the fault
// layer's books.
type ChaosPoint struct {
	ClusterPoint
	Label string
	// DownDrops sums server-side work killed by the crash (RX-ring and
	// core-queue requests) — distinct from HostDownDrops, the frames that
	// died at the dead host's NIC.
	DownDrops  uint64
	Recoveries uint64
	// Downed counts frames discarded at admin-down switch ports.
	Downed uint64
	Sched  faults.NodeSchedule
	Ledger driver.FrameLedger
	// Injector books for the optional client-0 link fault.
	DupUp, DupDown           uint64
	InjDropped, InjCorrupted uint64
	// Buckets is the clients' summed completions per measurement-window
	// slice (chaosBuckets slices).
	Buckets []uint64
}

// Hedges/HedgeWins/HedgeWasted sum the clients' hedge accounting.
func (p ChaosPoint) Hedges() (launched, won, wasted uint64) {
	for _, r := range p.Results {
		launched += r.Hedges
		won += r.HedgeWins
		wasted += r.HedgeWasted
	}
	return
}

// SilentLoss is the topology-wide frame conservation gap — zero when every
// posted frame is accounted delivered, dropped, FCS-discarded, downed, or
// host-down dropped.
func (p ChaosPoint) SilentLoss() int64 {
	return p.Ledger.SilentLoss(p.DupUp, p.DupDown)
}

// bucketMean averages buckets [lo, hi).
func (p ChaosPoint) bucketMean(lo, hi int) float64 {
	if lo >= hi {
		return 0
	}
	var sum uint64
	for _, v := range p.Buckets[lo:hi] {
		sum += v
	}
	return float64(sum) / float64(hi-lo)
}

// fingerprint extends the cluster fingerprint with the fault books.
func (p ChaosPoint) fingerprint() string {
	h, w, ww := p.Hedges()
	return fmt.Sprintf("%s %s sched=%+v downed=%d downdrops=%d hedges=%d/%d/%d buckets=%v silent=%d",
		p.Label, p.ClusterPoint.fingerprint(), p.Sched, p.Downed, p.DownDrops,
		h, w, ww, p.Buckets, p.SilentLoss())
}

// runChaos executes one chaos point on a fresh 4-node rack.
func runChaos(cc chaosCfg) ChaosPoint {
	gen := workloads.NewYCSBTheta(cc.nKeys, 128, 1, cc.theta)
	c := driver.NewClusterTestbed(chaosNodes, chaosNodes, driver.SysCornflakes,
		nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
	for _, srv := range c.Servers {
		srv.ShedQueue = chaosShedQueue
	}
	c.Preload(gen.Records(), cc.R)

	var injUp, injDown *faults.Injector
	if cc.linkFault != nil {
		// Satellite: the link-level adversary attached *inside* the fabric —
		// client 0's endpoint port and the switch-side port of its link.
		p := c.Clients[0].Port
		injUp, injDown = faults.Apply(*cc.linkFault, p, p.Peer())
	}
	sched := faults.ScheduleNodePlan(c.Eng, cc.plan, c.FaultNodes(), c.Switch)

	cfgs := make([]loadgen.Config, chaosNodes)
	for i := range cfgs {
		cl := c.NewClient(i, driver.SysCornflakes, cc.R)
		cl.Failover = cc.failover
		cfgs[i] = cc.sc.withWindow(loadgen.Config{
			Eng: c.Eng, EP: c.Clients[i].UDP,
			Gen: gen, Client: cl,
			RatePerS: cc.ratePerClient,
			Seed:     cc.seed + uint64(i),
			ClientID: uint64(i + 1),
			// The cluster experiment's deadline ladder, so effective-p99
			// censoring floors match.
			Retry:   clusterRetry(),
			Hedge:   cc.hedge,
			Buckets: chaosBuckets,
			ShedID:  driver.ShedID,
		})
	}
	results := loadgen.RunMany(cfgs)
	// Quiesce: let frames still inside the switch pipeline or on a wire
	// land, so the conservation ledger reads a settled topology. Results
	// are already captured; post-horizon deliveries only count as Late.
	c.Eng.Run()

	p := ChaosPoint{
		ClusterPoint: ClusterPoint{
			Nodes: chaosNodes, Theta: cc.theta, R: cc.R, Results: results,
		},
		Sched:   *sched,
		Buckets: make([]uint64, chaosBuckets),
	}
	for _, srv := range c.Servers {
		p.Handled = append(p.Handled, srv.Handled)
		p.DownDrops += srv.DownDrops
		p.Recoveries += srv.Recoveries
	}
	p.Misrouted = c.Switch.Misrouted()
	ts := c.Switch.TotalStats()
	p.Drops = ts.EgressDrops
	p.Downed = ts.DownedIngress + ts.DownedEgress
	p.Ledger = c.Ledger()
	if injUp != nil {
		p.DupUp = injUp.Stats.Duplicated
		p.DupDown = injDown.Stats.Duplicated
		p.InjDropped = injUp.Stats.Dropped + injUp.Stats.BurstDropped +
			injDown.Stats.Dropped + injDown.Stats.BurstDropped
		p.InjCorrupted = injUp.Stats.Corrupted + injDown.Stats.Corrupted
	}
	for _, r := range results {
		for i, v := range r.BucketCompleted {
			p.Buckets[i] += v
		}
	}
	return p
}

// crashPlan is the kill-one-shard scenario: node 0 dies a quarter into the
// measurement window and restarts cold a quarter-window later.
func crashPlan(sc Scale, seed uint64) faults.NodeFaultPlan {
	w, m := sc.window()
	return faults.NodeFaultPlan{
		Seed:    seed,
		Crashes: []faults.NodeCrash{{Node: 0, At: w + m/4, Downtime: m / 4}},
	}
}

// ChaosCrashPoint runs one kill-one-shard ladder point (exported for the
// check.sh smoke test and the driver-level regression tests).
func ChaosCrashPoint(sc Scale, ratePerClient float64, failover bool) ChaosPoint {
	p := runChaos(chaosCfg{
		sc: sc, nKeys: sc.StoreKeys, ratePerClient: ratePerClient,
		theta: clusterBalancedTheta, R: chaosR, seed: 83,
		failover: failover,
		plan:     crashPlan(sc, 83),
	})
	if failover {
		p.Label = "crash"
	} else {
		p.Label = "crash-ctl"
	}
	return p
}

// flapPlan is the flap storm: two server ports flap three down/up cycles
// each, edges jittered so the storms interleave irregularly.
func flapPlan(sc Scale, addrs []byte, seed uint64) faults.NodeFaultPlan {
	w, m := sc.window()
	return faults.NodeFaultPlan{
		Seed: seed,
		Flaps: []faults.PortFlap{
			{Addr: addrs[1], At: w + m/8, Down: m / 16, Count: 3, Period: m / 4, Jitter: m / 64},
			{Addr: addrs[2], At: w + m/6, Down: m / 16, Count: 3, Period: m / 4, Jitter: m / 64},
		},
	}
}

// grayPlan degrades node 0 to 6× service cost for the whole run.
func grayPlan(sc Scale, seed uint64) faults.NodeFaultPlan {
	w, _ := sc.window()
	return faults.NodeFaultPlan{
		Seed:  seed,
		Grays: []faults.GrayFailure{{Node: 0, At: w, Slowdown: chaosGraySlowdown}},
	}
}

// chaosGraySlowdown is the gray node's service-cost multiplier: at 0.5×
// capacity load spread R=3-wide, 6× cost pushes the gray node ~3× past
// sustainable — saturated enough that everything routed there stalls, but
// alive enough that it never fails a health check.
const chaosGraySlowdown = 6.0

// chaosHedge is the gray-triplet hedge policy: fire the second copy just
// past the healthy tail, jittered so clients do not hedge in phase.
func chaosHedge() loadgen.HedgePolicy {
	return loadgen.HedgePolicy{Delay: 40 * sim.Microsecond, Jitter: 8 * sim.Microsecond}
}

// Chaos runs the three fault scenarios and checks recovery, conservation,
// hedging, and determinism.
func Chaos(sc Scale) *Report {
	r := &Report{
		ID:    "chaos",
		Title: "Cluster chaos: crash/recovery, port flaps, gray failure + hedging",
		Header: []string{"scenario", "R", "offered/client rps", "agg goodput rps",
			"eff p99 µs", "timeout %", "hedge l/w/w", "downed", "downdrops", "silent"},
	}

	// Per-node capacity, probed as the cluster experiment does.
	capRps := rackCapacity(sc)
	if !capacityOK(r, capRps) {
		return r
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"per-node capacity estimate %.0f rps; %d nodes, crash ladder 0.45×/0.6×/0.75×",
		capRps, chaosNodes))

	// Scenario points, all independent racks — fan out across workers.
	// 0-2: crash ladder (failover); 3: no-failover control at the middle
	// rate; 4: same-seed rerun of the middle point (determinism); 5: flap
	// storm; 6-8: gray triplet (healthy / timeout-only / hedged).
	ladderFactors := []float64{0.45, 0.6, 0.75}
	pts := make([]ChaosPoint, 9)
	forEach(sc.workers(), len(pts), func(i int) {
		switch {
		case i < 3:
			pts[i] = ChaosCrashPoint(sc, ladderFactors[i]*capRps, true)
		case i == 3:
			pts[i] = ChaosCrashPoint(sc, ladderFactors[1]*capRps, false)
		case i == 4:
			pts[i] = ChaosCrashPoint(sc, ladderFactors[1]*capRps, true)
		case i == 5:
			// Server fabric addresses are deterministic (servers plug in
			// first, addresses 1..n), so the flap plan can name them before
			// the rack exists.
			pts[i] = runChaos(chaosCfg{
				sc: sc, nKeys: sc.StoreKeys, ratePerClient: 0.4 * capRps,
				theta: clusterBalancedTheta, R: chaosR, seed: 97, failover: true,
				plan: flapPlan(sc, []byte{1, 2, 3, 4}, 97),
				linkFault: &faults.Plan{
					Seed: 97,
					AtoB: faults.Dir{Loss: 0.02},
					BtoA: faults.Dir{Corrupt: 0.02},
				},
			})
			pts[i].Label = "flapstorm"
		default:
			gi := i - 6
			cc := chaosCfg{
				sc: sc, nKeys: sc.StoreKeys, ratePerClient: 0.5 * capRps,
				theta: clusterBalancedTheta, R: 3, seed: 109,
			}
			switch gi {
			case 1: // gray, timeout-only
				cc.plan = grayPlan(sc, 109)
			case 2: // gray, failover + hedged
				cc.plan = grayPlan(sc, 109)
				cc.failover = true
				cc.hedge = chaosHedge()
			}
			pts[i] = runChaos(cc)
			pts[i].Label = []string{"healthy", "gray", "gray+hedge"}[gi]
		}
	})
	ladder, control, rerun, flap := pts[0:3], pts[3], pts[4], pts[5]
	healthy, gray, hedged := pts[6], pts[7], pts[8]

	for _, p := range pts {
		rate := 0.0
		if len(p.Results) > 0 {
			rate = p.Results[0].OfferedRps
		}
		h, w, ww := p.Hedges()
		r.Rows = append(r.Rows, []string{
			p.Label, fmt.Sprint(p.R),
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.0f", p.AggGoodput()),
			f1(p.EffectiveP99().Seconds() * 1e6),
			f1(100 * p.TimeoutFrac()),
			fmt.Sprintf("%d/%d/%d", h, w, ww),
			fmt.Sprint(p.Downed),
			fmt.Sprint(p.DownDrops + p.Ledger.HostDownDrops),
			fmt.Sprint(p.SilentLoss()),
		})
	}

	// 1. Crash ladder: the crash engaged (frames died at the dead host,
	// the shard restarted exactly once) and goodput re-converged — the
	// last-quarter bucket mean is ≥ 90% of the pre-crash mean.
	recovered, engaged := true, true
	detail := ""
	for _, p := range ladder {
		pre := p.bucketMean(0, chaosBuckets/4)
		post := p.bucketMean(3*chaosBuckets/4, chaosBuckets)
		if post < 0.9*pre || pre == 0 {
			recovered = false
		}
		if p.Ledger.HostDownDrops == 0 || p.Recoveries != 1 || p.Sched.Crashes != 1 {
			engaged = false
		}
		detail += fmt.Sprintf(" [%.0f→%.0f/bucket dead=%d]", pre, post, p.Ledger.HostDownDrops)
	}
	r.AddCheck("crash ladder: shard dies and restarts cold; goodput re-converges ≥ 90% of pre-crash",
		recovered && engaged, "pre→post completions per bucket:%s", detail)

	// 2. Failover: attempt-indexed rerouting beats attempt-blind retries —
	// fewer requests exhaust their ladder against the dead shard.
	var foTO, ctlTO uint64
	for _, res := range ladder[1].Results {
		foTO += res.TimedOut
	}
	for _, res := range control.Results {
		ctlTO += res.TimedOut
	}
	r.AddCheck("failover: timeouts rotate to live replicas (fewer final timeouts than no-failover control)",
		foTO < ctlTO, "failover %d timed out vs control %d at equal load", foTO, ctlTO)

	// 3. Flap storm: the flaps completed symmetrically, downed ports ate
	// frames loudly, and the link injector's losses and corruptions all
	// showed up in the ledger — conservation exact through the storm.
	r.AddCheck("flap storm: downed-port frames counted, injected wire faults ledgered, zero silent loss",
		flap.Downed > 0 && flap.Sched.FlapsDown == 6 && flap.Sched.FlapsUp == 6 &&
			flap.InjDropped > 0 && flap.InjCorrupted > 0 && flap.Ledger.DownFCS > 0 &&
			flap.SilentLoss() == 0,
		"downed=%d flaps=%d/%d injector dropped=%d corrupted=%d downFCS=%d silent=%d",
		flap.Downed, flap.Sched.FlapsDown, flap.Sched.FlapsUp,
		flap.InjDropped, flap.InjCorrupted, flap.Ledger.DownFCS, flap.SilentLoss())

	// 4. Gray failure engages: the degraded node drags the recovery
	// machinery in — attempts expire and retry (or get shed by the
	// saturated node's admission control) — and inflates the
	// censoring-robust tail well past healthy. It never times out
	// decisively: that is what makes gray failure the hard case.
	engagedOps := func(p ChaosPoint) uint64 {
		var n uint64
		for _, res := range p.Results {
			n += res.Retries + res.Shed + res.TimedOut
		}
		return n
	}
	r.AddCheck("gray failure: 6× degraded node inflates effective p99 ≥ 2× healthy",
		engagedOps(gray) > engagedOps(healthy) &&
			gray.EffectiveP99() >= 2*healthy.EffectiveP99() &&
			healthy.EffectiveP99() > 0,
		"effective p99 %v gray vs %v healthy; retries+sheds+timeouts %d vs %d",
		gray.EffectiveP99(), healthy.EffectiveP99(),
		engagedOps(gray), engagedOps(healthy))

	// 5. Hedging rescues the gray tail: ≥ 2× effective-p99 cut at equal
	// offered load, goodput no worse, and the hedge books exact.
	hl, hw, hww := hedged.Hedges()
	r.AddCheck("hedging: cuts gray effective p99 ≥ 2× vs timeout-only at equal load, books exact",
		2*hedged.EffectiveP99() <= gray.EffectiveP99() &&
			hedged.AggGoodput() >= gray.AggGoodput() &&
			hl > 0 && hw > 0 && hw <= hl,
		"effective p99 %v → %v; goodput %.0f → %.0f rps; hedges launched=%d won=%d wasted=%d",
		gray.EffectiveP99(), hedged.EffectiveP99(),
		gray.AggGoodput(), hedged.AggGoodput(), hl, hw, hww)

	// 6. Conservation: every scenario's frame ledger balances exactly —
	// posted == delivered + dropped + FCS + downed + host-down, topology
	// wide — and nothing was misrouted.
	var silent int64
	var mis uint64
	for _, p := range pts {
		silent += p.SilentLoss()
		mis += p.Misrouted
	}
	r.AddCheck("conservation: zero frames silently lost across every fault scenario",
		silent == 0 && mis == 0, "total gap %d frames, %d misrouted over %d points",
		silent, mis, len(pts))

	// 7. Accounting: every client disposes exactly under every fault —
	// sent == completed + shed + timed-out + unresolved, hedges included.
	exact := true
	for _, p := range pts {
		if !p.accountingExact() {
			exact = false
		}
	}
	r.AddCheck("accounting: disposal exact for every client under every fault scenario",
		exact, "checked %d points × %d clients", len(pts), chaosNodes)

	// 8. Determinism: the same seed replays the same storm byte for byte.
	r.AddCheck("determinism: same-seed crash point replays byte-identical",
		ladder[1].fingerprint() == rerun.fingerprint(),
		"fingerprints match: %v", ladder[1].fingerprint() == rerun.fingerprint())

	return r
}
