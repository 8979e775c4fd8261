package rpc

import (
	"math/rand/v2"
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

type genConst struct{}

func (genConst) Name() string                      { return "const" }
func (genConst) Records() []workloads.KV           { return nil }
func (genConst) Next(*rand.Rand) workloads.Request { return workloads.Request{Op: workloads.OpGet} }

func chainCfg(sys driver.System, depth, fanout int) ChainConfig {
	return ChainConfig{
		Sys: sys, Profile: nic.MellanoxCX6(), Cache: cachesim.DefaultConfig(),
		Depth: depth, Fanout: fanout,
		AppCycles: 1500, ReqBytes: 64, FwdBytes: 64, RespBytes: 128,
	}
}

func runChain(t *testing.T, c *Chain, rate float64, retry loadgen.RetryPolicy, hedge loadgen.HedgePolicy) loadgen.Result {
	t.Helper()
	res := loadgen.Run(loadgen.Config{
		Eng: c.Eng, EP: c.Client.N.UDP,
		Gen: genConst{}, Client: c.Client,
		RatePerS: rate,
		Warmup:   200 * sim.Microsecond,
		Measure:  2 * sim.Millisecond,
		Seed:     7,
		Retry:    retry,
		Hedge:    hedge,
		ShedID:   driver.ShedID,
	})
	c.Eng.Run() // quiesce: fan-in timers and stragglers resolve
	return res
}

func assertDisposalExact(t *testing.T, res loadgen.Result) {
	t.Helper()
	if res.Sent != res.Completed+res.Shed+res.TimedOut+res.Unresolved {
		t.Fatalf("disposal gap: sent=%d done=%d shed=%d to=%d unres=%d",
			res.Sent, res.Completed, res.Shed, res.TimedOut, res.Unresolved)
	}
}

func assertLedgers(t *testing.T, c *Chain) {
	t.Helper()
	for _, s := range c.Services {
		if !s.ChildLedgerExact() {
			t.Errorf("%s: child ledger gap: calls=%d replies=%d sheds=%d abandoned=%d late=%d",
				s.Name, s.ChildCalls, s.ChildReplies, s.ChildSheds, s.ChildAbandoned, s.LateChildReplies)
		}
		if n := s.PendingChildren(); n != 0 {
			t.Errorf("%s: %d children still pending after quiesce", s.Name, n)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Kind: KindReply, Method: 7, Hop: 3, CallID: 0xDEADBEEF01, RootID: 0x1CEB00DA02}
	var b [HeaderLen]byte
	h.EncodeTo(b[:])
	if got := DecodeHeader(b[:]); got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
	id, ok := PeekRootID(b[:])
	if !ok || id != h.RootID {
		t.Fatalf("PeekRootID = %x, %v", id, ok)
	}
	if _, ok := PeekRootID(b[:HeaderLen-1]); ok {
		t.Fatal("PeekRootID accepted a short frame")
	}
}

// Every serialization system must carry a call through a single hop and
// back, with real (metered) marshalling on the service.
func TestSingleHopAllSystems(t *testing.T) {
	for _, sys := range driver.AllSystems() {
		t.Run(sys.String(), func(t *testing.T) {
			c := NewChain(chainCfg(sys, 1, 0))
			res := runChain(t, c, 40_000, loadgen.RetryPolicy{}, loadgen.HedgePolicy{})
			if res.Completed == 0 {
				t.Fatal("no calls completed")
			}
			assertDisposalExact(t, res)
			svc := c.Services[0]
			if svc.Errors != 0 {
				t.Fatalf("service errors: %d", svc.Errors)
			}
			if svc.RepliesSent != svc.Handled {
				t.Fatalf("replies %d != handled %d", svc.RepliesSent, svc.Handled)
			}
			rec, n := c.HostReceipt()
			if n == 0 || rec.Cycles[costmodel.CatSerialize] <= 0 || rec.Cycles[costmodel.CatDeserialize] <= 0 {
				t.Fatalf("marshalling not metered: n=%d ser=%.0f des=%.0f",
					n, rec.Cycles[costmodel.CatSerialize], rec.Cycles[costmodel.CatDeserialize])
			}
		})
	}
}

// Chaining tiers compounds marshalling: total host serialization cycles
// per completed call must grow roughly linearly with hop count.
func TestSerializationCompoundsPerHop(t *testing.T) {
	perCall := func(depth int) float64 {
		c := NewChain(chainCfg(driver.SysProtobuf, depth, 0))
		res := runChain(t, c, 30_000, loadgen.RetryPolicy{}, loadgen.HedgePolicy{})
		if res.Completed == 0 {
			t.Fatalf("depth %d: nothing completed", depth)
		}
		rec, _ := c.HostReceipt()
		ser := rec.Cycles[costmodel.CatSerialize] + rec.Cycles[costmodel.CatDeserialize]
		return ser / float64(res.Completed)
	}
	d1, d3 := perCall(1), perCall(3)
	if d3 < 2*d1 {
		t.Fatalf("ser/des per call did not compound with depth: d1=%.0f d3=%.0f", d1, d3)
	}
}

// A mid-chain admission shed must propagate hop by hop to the client and
// classify as Shed there, leaving the disposal ledger exact.
func TestShedPropagatesUpstream(t *testing.T) {
	cfg := chainCfg(driver.SysCornflakes, 2, 0)
	cfg.CallTimeout = 200 * sim.Microsecond
	c := NewChain(cfg)
	// Choke the deepest tier only: the frontend stays healthy, so every
	// client-visible shed had to ride through it.
	c.Services[1].ShedQueue = 1
	c.Services[1].AppCycles = 200_000
	res := runChain(t, c, 60_000,
		loadgen.RetryPolicy{Deadline: 2 * sim.Millisecond}, loadgen.HedgePolicy{})
	if res.Shed == 0 {
		t.Fatal("no sheds reached the client")
	}
	if c.Services[0].ChildSheds == 0 {
		t.Fatal("frontend never saw a backend shed")
	}
	assertDisposalExact(t, res)
	assertLedgers(t, c)
}

// The RPCAcc-style offload engine must move serialization cycles off the
// host cores: host-side ser/des per handled call drops to the header-only
// residue, and the moved cycles show up on the offload receipts instead.
func TestOffloadMovesSerializationOffHost(t *testing.T) {
	hostSer := func(off bool) (perCall float64, c *Chain) {
		cfg := chainCfg(driver.SysProtobuf, 2, 0)
		cfg.Offload = off
		c = NewChain(cfg)
		res := runChain(t, c, 30_000, loadgen.RetryPolicy{}, loadgen.HedgePolicy{})
		if res.Completed == 0 {
			t.Fatalf("offload=%v: nothing completed", off)
		}
		rec, n := c.HostReceipt()
		return rec.Cycles[costmodel.CatSerialize] / float64(n), c
	}
	on, con := hostSer(true)
	off, _ := hostSer(false)
	if off <= 0 {
		t.Fatalf("baseline host serialization is zero (%.1f)", off)
	}
	if on > off/2 {
		t.Fatalf("offload left %.1f ser cycles/call on host (baseline %.1f)", on, off)
	}
	orec, _ := con.OffloadReceipt()
	if orec.Cycles[costmodel.CatSerialize] <= 0 {
		t.Fatal("offload engine recorded no serialization cycles")
	}
}

// Same seed, same config → byte-identical outcome counters and latency
// quantiles. The RPC layer must not leak map iteration or pointer order
// into the simulation.
func TestChainDeterminism(t *testing.T) {
	type fp struct {
		sent, done, shed, to uint64
		p50, p99             sim.Time
		handled              uint64
	}
	run := func() fp {
		cfg := chainCfg(driver.SysCornflakes, 3, 2)
		cfg.CallTimeout = 300 * sim.Microsecond
		c := NewChain(cfg)
		res := runChain(t, c, 50_000,
			loadgen.RetryPolicy{Deadline: 600 * sim.Microsecond, MaxRetries: 1, Backoff: 50 * sim.Microsecond},
			loadgen.HedgePolicy{})
		var h uint64
		for _, s := range c.Services {
			h += s.Handled
		}
		return fp{res.Sent, res.Completed, res.Shed, res.TimedOut, res.P50(), res.P99(), h}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic chain run:\n  a=%+v\n  b=%+v", a, b)
	}
}

// Names carry multi-digit numbers past nine: tier 10 is "t10" (its name
// rides every call as the key bytes), leaf 10 is "leaf10", and tier 10's
// trace phases read "rpc.h10.*".
func TestChainNamesPastNine(t *testing.T) {
	c := NewChain(chainCfg(driver.SysCornflakes, 11, 11))
	t10, leaf10 := c.Services[9], c.Leaves[10]
	if t10.Name != "t10" || string(t10.keyBuf) != "t10" {
		t.Errorf("tier 10 named %q with key %q, want t10", t10.Name, t10.keyBuf)
	}
	if leaf10.Name != "leaf10" {
		t.Errorf("leaf 10 named %q, want leaf10", leaf10.Name)
	}
	if got := t10.phase("handle"); got != "rpc.h10.handle" {
		t.Errorf("tier 10 handle phase %q, want rpc.h10.handle", got)
	}
}

// corruptFrame is a Cornflakes-encoded call frame for root id 7, a body no
// other system decodes.
func corruptFrame() []byte {
	return NewChain(chainCfg(driver.SysCornflakes, 1, 0)).Client.BuildStep(7, workloads.Request{}, 0)
}

// A call whose body fails to decode is dropped, as KVServer drops an
// undecodable request: no app work, no fan-out and no reply, on every tier
// of a chain.
func TestUndecodableCallIsDropped(t *testing.T) {
	frame := corruptFrame()
	for _, sys := range []driver.System{driver.SysProtobuf, driver.SysFlatBuffers, driver.SysCapnProto} {
		t.Run(sys.String(), func(t *testing.T) {
			cfg := chainCfg(sys, 2, 1)
			cfg.CallTimeout = 250 * sim.Microsecond
			c := NewChain(cfg)
			base := make([]int64, len(c.Services))
			for i, s := range c.Services {
				base[i] = s.N.Alloc.Stats().SlotsInUse
				p := s.N.Alloc.Alloc(len(frame))
				copy(p.Bytes(), frame)
				s.onPayload(p)
			}
			c.Eng.Run()
			for i, s := range c.Services {
				if s.Errors != 1 || s.ChildCalls != 0 || s.RepliesSent != 0 {
					t.Errorf("%s: errors %d, child calls %d, replies %d; want 1, 0, 0",
						s.Name, s.Errors, s.ChildCalls, s.RepliesSent)
				}
				if got := s.N.Alloc.Stats().SlotsInUse; got != base[i] {
					t.Errorf("%s: %d pinned slots in use after quiesce, want %d", s.Name, got, base[i])
				}
			}
			assertLedgers(t, c)
		})
	}
}

// A child reply whose body fails to decode never becomes a KindReply
// upstream. When it completes the fan-in, the call fails upstream at once;
// when a sibling is still pending, it only counts in Errors and the
// fan-in deadline settles the call.
func TestUndecodableReplyFailsFanIn(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fanout   int
		timeouts uint64
	}{
		{"completes", 1, 0},
		{"sibling-pending", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chainCfg(driver.SysProtobuf, 1, tc.fanout)
			cfg.CallTimeout = 100 * sim.Microsecond
			c := NewChain(cfg)
			parent := c.Services[0]
			// Down leaves never answer: the injected reply is the only one.
			for _, l := range c.Leaves {
				l.N.UDP.Down = true
			}
			got := ""
			c.Client.N.UDP.SetRecvHandler(func(p *mem.Buf) {
				if _, ok := driver.ShedID(p.Bytes()); ok {
					got = "shed"
				} else {
					got = "reply"
				}
				p.DecRef()
			})
			sendCall(t, c, 1)
			for parent.PendingChildren() < tc.fanout {
				c.Eng.RunUntil(c.Eng.Now() + 100*sim.Nanosecond)
			}
			var cid uint64
			for _, inf := range parent.pend {
				cid = inf.children[0]
			}
			frame := corruptFrame()
			Header{Kind: KindReply, Method: 1, Hop: 2, CallID: cid, RootID: 1}.EncodeTo(frame)
			p := parent.N.Alloc.Alloc(len(frame))
			copy(p.Bytes(), frame)
			parent.onPayload(p)
			c.Eng.Run()
			if got != "shed" || parent.FailsSent != 1 || parent.RepliesSent != 0 {
				t.Fatalf("client saw %q; parent sent %d fails, %d replies; want shed, 1, 0",
					got, parent.FailsSent, parent.RepliesSent)
			}
			if parent.Errors != 1 || parent.ChildReplies != 1 || parent.ChildTimeouts != tc.timeouts {
				t.Fatalf("errors %d, child replies %d, timeouts %d; want 1, 1, %d",
					parent.Errors, parent.ChildReplies, parent.ChildTimeouts, tc.timeouts)
			}
			assertLedgers(t, c)
		})
	}
}

// The chain's client is a load generator, built unmetered: after a run its
// hierarchy has done no cache-model work and allocated no page tables,
// while every tier's has.
func TestChainClientUnmetered(t *testing.T) {
	c := NewChain(chainCfg(driver.SysCornflakes, 2, 2))
	if res := runChain(t, c, 50_000, loadgen.RetryPolicy{}, loadgen.HedgePolicy{}); res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	cl := c.Client.N
	if s := cl.Cache.Stats(); cl.Meter.Cache != nil || s != ([3]cachesim.LevelStats{}) || cl.Cache.DRAMAccesses != 0 || cl.Cache.Allocated() {
		t.Errorf("client hierarchy reads %+v, %d DRAM accesses, allocated %v; want an unmetered, untouched client",
			s, cl.Cache.DRAMAccesses, cl.Cache.Allocated())
	}
	for _, s := range c.Services {
		st := s.N.Cache.Stats()
		if st[0].Hits == 0 || st[0].Misses == 0 || s.N.Cache.DRAMAccesses == 0 || !s.N.Cache.Allocated() {
			t.Errorf("%s: hierarchy reads %+v, %d DRAM accesses, allocated %v; want all non-zero",
				s.Name, st, s.N.Cache.DRAMAccesses, s.N.Cache.Allocated())
		}
	}
}
