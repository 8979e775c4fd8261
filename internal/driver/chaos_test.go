package driver

import (
	"fmt"
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/fabric"
	"cornflakes/internal/faults"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// TestClusterCrashRecovery drives a crash/recovery through a live cluster:
// the crashed shard drops in-flight and arriving work loudly, restarts
// cold, and the frame ledger still balances to zero at quiesce.
func TestClusterCrashRecovery(t *testing.T) {
	gen := clusterGen(300)
	c := NewClusterTestbed(2, 2, SysCornflakes, nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
	c.Preload(gen.Records(), 2)

	// Crash shard 0 a quarter into the measure window, recover halfway.
	sched := faults.ScheduleNodePlan(c.Eng, faults.NodeFaultPlan{
		Seed: 5,
		Crashes: []faults.NodeCrash{{
			Node: 0, At: sim.Millisecond, Downtime: sim.Millisecond / 2,
		}},
	}, c.FaultNodes(), c.Switch)

	cfgs := make([]loadgen.Config, 2)
	clients := make([]*ClusterKVClient, 2)
	for i := range cfgs {
		clients[i] = c.NewClient(i, SysCornflakes, 2)
		clients[i].Failover = true
		cfgs[i] = clusterCfg(c, i, clients[i], gen, 100_000, 77)
	}
	results := loadgen.RunMany(cfgs)
	c.Eng.Run() // quiesce: late replies, in-flight frames, recovery timer

	if sched.Crashes != 1 || sched.Recoveries != 1 {
		t.Fatalf("schedule = %+v, want 1 crash / 1 recovery", sched)
	}
	srv := c.Servers[0]
	if srv.Down {
		t.Error("shard 0 still down after recovery")
	}
	if srv.Recoveries != 1 {
		t.Errorf("shard 0 recoveries = %d, want 1", srv.Recoveries)
	}
	// The dead window must have discarded something, and loudly: frames
	// that reached the crashed host count as host-down drops, work already
	// accepted counts as server-side down drops.
	if srv.N.UDP.RxDownDrops == 0 {
		t.Error("no host-down drops despite a 0.5 ms dead window under load")
	}
	// A cold restart flushes the cache: the recovered shard must miss again.
	if cs := srv.N.Cache.Stats(); cs[0].Misses == 0 {
		t.Error("no cache misses after cold restart")
	}
	for i, res := range results {
		if got := res.Completed + res.Shed + res.TimedOut + res.Unresolved; got != res.Sent {
			t.Errorf("client %d accounting: sent=%d resolved=%d", i, res.Sent, got)
		}
		if res.Completed == 0 {
			t.Errorf("client %d completed nothing", i)
		}
		if res.BadResponses != 0 {
			t.Errorf("client %d: %d bad responses", i, res.BadResponses)
		}
	}
	// Every frame in the topology is accounted for — nothing vanished
	// silently through the crash.
	if loss := c.Ledger().SilentLoss(0, 0); loss != 0 {
		t.Errorf("silent frame loss through crash: %d (ledger %+v)", loss, c.Ledger())
	}
}

// TestCrashDrainsPending pins the in-flight-drop contract directly: the
// requests sitting in the server's RX ring at crash time die with the
// process as the drainer reaches them — each counted once in DownDrops,
// none served — at the default burst cap and with bursts.
func TestCrashDrainsPending(t *testing.T) {
	for _, burst := range []int{1, 8} {
		t.Run(fmt.Sprintf("burst=%d", burst), func(t *testing.T) {
			gen := clusterGen(100)
			c := NewClusterTestbed(1, 1, SysCornflakes, nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
			c.Preload(gen.Records(), 1)
			srv := c.Servers[0]
			srv.EnableBatching(burst)

			cl := c.NewClient(0, SysCornflakes, 1)
			cfg := clusterCfg(c, 0, cl, gen, 3_000_000, 13)
			cfg.Warmup, cfg.Measure = 0, sim.Millisecond

			// Crash just after load starts and never recover. The crash
			// itself drops nothing: the drainer discards the parked
			// requests, with zero service, when it reaches them.
			var parked int
			var handled uint64
			c.Eng.At(50*sim.Microsecond, func() {
				parked, handled = srv.PendingDepth(), srv.Handled
				if parked == 0 {
					t.Error("no RX-ring backlog at crash time; rate too low to pin the drain")
				}
				srv.Crash()
				if srv.DownDrops != 0 {
					t.Errorf("DownDrops = %d before the drainer ran", srv.DownDrops)
				}
			})
			res := loadgen.Run(cfg)
			c.Eng.Run()

			if srv.DownDrops != uint64(parked) {
				t.Errorf("DownDrops = %d, want the %d requests parked at the crash", srv.DownDrops, parked)
			}
			if srv.Handled != handled {
				t.Errorf("Handled grew from %d to %d after the crash", handled, srv.Handled)
			}
			if d := srv.PendingDepth(); d != 0 {
				t.Errorf("RX ring holds %d requests after the run", d)
			}
			if res.Completed == 0 {
				t.Error("nothing completed before the crash")
			}
			if got := res.Completed + res.Shed + res.TimedOut + res.Unresolved; got != res.Sent {
				t.Errorf("accounting: sent=%d resolved=%d", res.Sent, got)
			}
			if loss := c.Ledger().SilentLoss(0, 0); loss != 0 {
				t.Errorf("silent frame loss: %d", loss)
			}
		})
	}
}

// TestGraySlowdownScales pins the gray-failure primitive: SetGray(k)
// multiplies the modelled service time by k and SetGray(1) restores it.
func TestGraySlowdownScales(t *testing.T) {
	c := NewClusterTestbed(1, 1, SysCornflakes, nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
	srv := c.Servers[0]
	base := srv.scaled(100 * sim.Microsecond)
	if base != 100*sim.Microsecond {
		t.Fatalf("healthy scaled(100µs) = %v", base)
	}
	srv.SetGray(6)
	if got := srv.scaled(100 * sim.Microsecond); got != 600*sim.Microsecond {
		t.Errorf("gray×6 scaled(100µs) = %v, want 600µs", got)
	}
	srv.SetGray(0.5) // ≤ 1 restores healthy
	if got := srv.scaled(100 * sim.Microsecond); got != 100*sim.Microsecond {
		t.Errorf("restored scaled(100µs) = %v, want 100µs", got)
	}
}

// TestFailoverRouting pins attempt-indexed replica selection: consecutive
// attempts of one read land on distinct replicas, attempt 0 is stable, and
// the non-failover path is untouched.
func TestFailoverRouting(t *testing.T) {
	gen := clusterGen(100)
	c := NewClusterTestbed(4, 1, SysCornflakes, nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
	c.Preload(gen.Records(), 2)

	cl := c.NewClient(0, SysCornflakes, 2)
	cl.Failover = true
	key := gen.Records()[0].Key
	read := workloads.Request{Op: workloads.OpGetList, Keys: [][]byte{key}}

	dst := func(attempt int) byte {
		cl.RouteAttempt(attempt)
		cl.BuildStep(1, read, 0)
		return cl.udp.DstAddr
	}
	a0, a1 := dst(0), dst(1)
	if a0 == a1 {
		t.Errorf("attempts 0 and 1 routed to the same replica %d", a0)
	}
	// R=2: attempt 2 wraps back to attempt 0's replica; attempt 0 replays.
	if a2 := dst(2); a2 != a0 {
		t.Errorf("attempt 2 = %d, want wrap to %d", a2, a0)
	}
	if again := dst(0); again != a0 {
		t.Errorf("attempt 0 not stable: %d then %d", a0, again)
	}
	// Writes ignore the attempt index: always the owner.
	put := workloads.Request{Op: workloads.OpPut, Keys: [][]byte{key}, Vals: [][]byte{{1}}}
	owner := c.ServerAddrs[c.Ring.Shard(key)]
	for attempt := 0; attempt < 3; attempt++ {
		cl.RouteAttempt(attempt)
		cl.BuildStep(2, put, 0)
		if cl.udp.DstAddr != owner {
			t.Errorf("put attempt %d routed to %d, want owner %d", attempt, cl.udp.DstAddr, owner)
		}
	}
}
