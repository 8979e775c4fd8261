// Node- and fabric-level faults: where faults.Plan models an adversarial
// wire, NodeFaultPlan models an adversarial *rack* — whole shards crashing
// and rebooting cold, nodes limping through gray failure at k× their
// modelled service cost, and switch ports flapping administratively up and
// down. Like the link plans, a node plan is seeded and replayable: every
// jittered transition is drawn from a sim.Rand at schedule time, so the
// exact same storm replays from (plan, topology) alone.
//
// The plan drives the topology through two small interfaces rather than
// concrete driver/fabric types, keeping this package's dependencies where
// they are (nic + sim only): driver.KVServer implements FaultNode,
// fabric.Switch implements PortAdmin.
package faults

import "cornflakes/internal/sim"

// FaultNode is the node-level fault surface a plan drives. Crash kills the
// node (arriving traffic discarded, accepted-but-unserved work dropped);
// Recover restarts it cold (caches flushed — a rebooted machine has no
// warm lines); SetGray(k) makes it serve at k× its modelled cost (k ≤ 1
// restores healthy service).
type FaultNode interface {
	Crash()
	Recover()
	SetGray(slowdown float64)
}

// PortAdmin flips fabric switch ports administratively up and down.
type PortAdmin interface {
	SetPortAdmin(addr byte, up bool)
}

// NodeCrash schedules one crash (and optionally the recovery) of a node.
type NodeCrash struct {
	// Node indexes into the node slice given to ScheduleNodePlan.
	Node int
	// At is the crash instant.
	At sim.Time
	// Downtime is how long the node stays dead before recovering cold.
	// Zero means it never comes back.
	Downtime sim.Time
}

// GrayFailure schedules a degraded-but-alive window on a node: it keeps
// answering, just at Slowdown× the modelled service time — the failure
// mode plain timeouts handle worst, because nothing ever times the node
// out decisively.
type GrayFailure struct {
	Node int
	At   sim.Time
	// Duration bounds the gray window; zero means the rest of the run.
	Duration sim.Time
	// Slowdown is the service-time multiplier (≥ 1).
	Slowdown float64
}

// PortFlap schedules Count down/up cycles of one switch port.
type PortFlap struct {
	// Addr is the fabric address whose port flaps.
	Addr byte
	// At is the first down transition.
	At sim.Time
	// Down is how long the port stays down each cycle.
	Down sim.Time
	// Count is the number of down/up cycles (≥ 1).
	Count int
	// Period is the cycle start-to-start spacing; it is clamped to exceed
	// Down so consecutive cycles cannot overlap.
	Period sim.Time
	// Jitter perturbs every transition by a seeded uniform [0, Jitter)
	// draw, so a storm's edges are irregular but replayable.
	Jitter sim.Time
}

// NodeFaultPlan is a whole-rack fault scenario: one seed, any mix of
// crashes, gray windows and port flaps.
type NodeFaultPlan struct {
	Seed    uint64
	Crashes []NodeCrash
	Grays   []GrayFailure
	Flaps   []PortFlap
}

// NodeSchedule counts the transitions a scheduled plan executed, for
// asserting a scenario actually engaged.
type NodeSchedule struct {
	Crashes, Recoveries uint64
	GraysOn, GraysOff   uint64
	FlapsDown, FlapsUp  uint64
}

// ScheduleNodePlan maps the plan onto engine timers against the given
// nodes and switch, returning the transition counters (live — they
// increment as the engine executes the plan). Out-of-range node indexes,
// sub-1 slowdowns and zero-count flaps are skipped; a nil sw skips flaps.
// All jitter is drawn here, at schedule time, in plan order, so the
// realized storm depends only on (Seed, plan) — never on traffic.
func ScheduleNodePlan(eng *sim.Engine, plan NodeFaultPlan, nodes []FaultNode, sw PortAdmin) *NodeSchedule {
	ns := &NodeSchedule{}
	rng := sim.NewRand(plan.Seed ^ 0xF1A_BEEF)
	at := func(t sim.Time, fn func()) {
		if t <= eng.Now() {
			t = eng.Now() + 1
		}
		eng.At(t, fn)
	}
	for _, cr := range plan.Crashes {
		if cr.Node < 0 || cr.Node >= len(nodes) {
			continue
		}
		n := nodes[cr.Node]
		at(cr.At, func() { n.Crash(); ns.Crashes++ })
		if cr.Downtime > 0 {
			at(cr.At+cr.Downtime, func() { n.Recover(); ns.Recoveries++ })
		}
	}
	for _, g := range plan.Grays {
		if g.Node < 0 || g.Node >= len(nodes) || g.Slowdown <= 1 {
			continue
		}
		n := nodes[g.Node]
		k := g.Slowdown
		at(g.At, func() { n.SetGray(k); ns.GraysOn++ })
		if g.Duration > 0 {
			at(g.At+g.Duration, func() { n.SetGray(1); ns.GraysOff++ })
		}
	}
	for _, fl := range plan.Flaps {
		if sw == nil || fl.Count < 1 || fl.Down <= 0 {
			continue
		}
		period := fl.Period
		if period <= fl.Down {
			period = fl.Down + 1
		}
		addr := fl.Addr
		t := fl.At
		for k := 0; k < fl.Count; k++ {
			downAt := t + rng.Duration(fl.Jitter)
			upAt := t + fl.Down + rng.Duration(fl.Jitter)
			if upAt <= downAt {
				upAt = downAt + 1
			}
			at(downAt, func() { sw.SetPortAdmin(addr, false); ns.FlapsDown++ })
			at(upAt, func() { sw.SetPortAdmin(addr, true); ns.FlapsUp++ })
			t += period
		}
	}
	return ns
}
