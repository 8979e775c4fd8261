package rpc

import (
	"testing"

	"cornflakes/internal/driver"
	"cornflakes/internal/mem"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// busyFor occupies a node's core for d. A service sends its reply when
// its job starts, so a leaf answers late only when earlier work holds its
// core.
func busyFor(s *Service, d sim.Time) {
	s.N.Core.Submit(sim.Job{Run: func() sim.Time { return d }})
}

// fanInRig drives a depth-1, fan-out-2 chain one call at a time and
// records how the client saw each root id resolve.
type fanInRig struct {
	t      *testing.T
	c      *Chain
	parent *Service
	got    map[uint64]string // root id → "reply" or "shed"
}

func newFanInRig(t *testing.T, timeout sim.Time) *fanInRig {
	cfg := chainCfg(driver.SysCornflakes, 1, 2)
	cfg.CallTimeout = timeout
	r := &fanInRig{t: t, c: NewChain(cfg), got: map[uint64]string{}}
	r.parent = r.c.Services[0]
	r.c.Client.N.UDP.SetRecvHandler(func(p *mem.Buf) {
		if id, ok := driver.ShedID(p.Bytes()); ok {
			r.got[id] = "shed"
		} else if id, ok := PeekRootID(p.Bytes()); ok {
			r.got[id] = "reply"
		}
		p.DecRef()
	})
	return r
}

func (r *fanInRig) call(id uint64) {
	frame := r.c.Client.BuildStep(id, workloads.Request{}, 0)
	if err := r.c.Client.N.UDP.SendContiguous(frame, mem.UnpinnedSimAddr(frame)); err != nil {
		r.t.Fatal(err)
	}
}

// runUntil steps the engine until cond holds.
func (r *fanInRig) runUntil(what string, cond func() bool) {
	for !cond() {
		if r.c.Eng.Pending() == 0 {
			r.t.Fatalf("engine drained before %s", what)
		}
		r.c.Eng.RunUntil(r.c.Eng.Now() + 100*sim.Nanosecond)
	}
}

// secondCallReusesRecord runs call 2 after call 1's fan-in record went
// back to the pool: call 2 must take that record, call 1's abandoned
// child must come back as one late reply that leaves call 2 pending, and
// call 2 must then complete.
func (r *fanInRig) secondCallReusesRecord() {
	p := r.parent
	if len(p.infs) != 1 || p.PendingChildren() != 0 {
		r.t.Fatalf("after call 1: %d pooled fan-in records, %d pending children; want 1, 0",
			len(p.infs), p.PendingChildren())
	}
	rec := p.infs[0]
	if p.LateChildReplies != 0 {
		r.t.Fatal("call 1's abandoned child replied before call 2 was sent")
	}
	r.call(2)
	r.runUntil("call 2's fan-out", func() bool { return p.ChildCalls == 4 })
	if len(p.infs) != 0 || p.PendingChildren() != 2 {
		r.t.Fatalf("call 2 fan-out: %d pooled records, %d pending children; want 0, 2",
			len(p.infs), p.PendingChildren())
	}
	for cid, inf := range p.pend {
		if inf != rec {
			r.t.Fatalf("call 2's child %x is not on call 1's pooled record", cid)
		}
	}
	if rec.h.RootID != 2 || rec.failed || rec.await != 2 {
		r.t.Fatalf("reused record: root %d failed %v await %d", rec.h.RootID, rec.failed, rec.await)
	}
	r.runUntil("call 1's late reply", func() bool { return p.LateChildReplies == 1 })
	if _, ok := r.got[2]; ok || rec.failed || rec.await == 0 {
		r.t.Fatalf("call 1's late reply touched call 2: client saw %q, failed %v, await %d",
			r.got[2], rec.failed, rec.await)
	}
	r.c.Eng.Run()
	if r.got[1] != "shed" || r.got[2] != "reply" {
		r.t.Fatalf("calls 1 and 2 resolved as %q and %q, want shed and reply", r.got[1], r.got[2])
	}
	if p.LateChildReplies != 1 || p.ChildAbandoned != 1 {
		r.t.Fatalf("late %d, abandoned %d; want 1, 1", p.LateChildReplies, p.ChildAbandoned)
	}
	if !p.ChildLedgerExact() || p.PendingChildren() != 0 {
		r.t.Fatalf("ledger: calls=%d replies=%d sheds=%d abandoned=%d late=%d pending=%d",
			p.ChildCalls, p.ChildReplies, p.ChildSheds, p.ChildAbandoned, p.LateChildReplies, p.PendingChildren())
	}
	if len(p.infs) != 1 || p.infs[0] != rec {
		r.t.Fatalf("call 2's record did not return to the pool (%d pooled)", len(p.infs))
	}
}

// TestFanInRecordReuse checks that a pooled fan-in record is safe to reuse
// while the call that last held it still has a child reply in flight, on
// both paths that write children off: the fan-in timeout and a sibling's
// shed.
func TestFanInRecordReuse(t *testing.T) {
	t.Run("timeout", func(t *testing.T) {
		r := newFanInRig(t, 30*sim.Microsecond)
		busyFor(r.c.Leaves[0], 50*sim.Microsecond)
		r.call(1)
		r.runUntil("call 1's fan-in timeout", func() bool { return r.parent.ChildTimeouts == 1 })
		r.secondCallReusesRecord()
		if r.parent.ChildTimeouts != 1 || r.parent.ChildSheds != 0 {
			t.Fatalf("timeouts %d, sheds %d; want 1, 0", r.parent.ChildTimeouts, r.parent.ChildSheds)
		}
	})
	t.Run("child-shed", func(t *testing.T) {
		r := newFanInRig(t, 40*sim.Microsecond)
		shedder, slow := r.c.Leaves[0], r.c.Leaves[1]
		// The shedder's core has a job in service and one queued, so its
		// one-deep admission bound sheds call 1's child on arrival; the
		// slow sibling is abandoned with its reply still to come.
		shedder.ShedQueue = 1
		busyFor(shedder, 20*sim.Microsecond)
		busyFor(shedder, 20*sim.Microsecond)
		busyFor(slow, 30*sim.Microsecond)
		r.call(1)
		r.runUntil("call 1's child shed", func() bool { return r.parent.ChildSheds == 1 })
		shedder.ShedQueue = 0
		r.secondCallReusesRecord()
		if r.parent.ChildTimeouts != 0 || r.parent.ChildSheds != 1 {
			t.Fatalf("timeouts %d, sheds %d; want 0, 1", r.parent.ChildTimeouts, r.parent.ChildSheds)
		}
	})
}
