package driver

import (
	"testing"

	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// runMulti runs a k-core server (NewCoreShards) under the testbed client's
// ring-routed load and returns the routed client with the shards.
func runMulti(t *testing.T, nCores int, rate float64) (loadgen.Result, *ClusterTestbed, *ClusterKVClient) {
	t.Helper()
	gen := workloads.NewTwitter(800, 20)
	tb := NewCoreShards(NewTestbed(nic.MellanoxCX6()), nCores, SysCornflakes)
	tb.Preload(gen.Records(), 1)
	cl := tb.NewClient(0, SysCornflakes, 1)
	res := loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Clients[0].UDP,
		Gen: gen, Client: cl,
		RatePerS: rate, Warmup: sim.Millisecond, Measure: 10 * sim.Millisecond, Seed: 21,
	})
	return res, tb, cl
}

// Every request reaches its core through that core's own UDP stack: each
// core's RxPackets equals the frames the client routed to it, and together they
// account for every frame the shared server port received.
func TestMultiKVCoresReceiveThroughOwnStacks(t *testing.T) {
	res, tb, cl := runMulti(t, 4, 200_000)
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	sum := uint64(0)
	for i, c := range tb.Servers {
		if got := c.N.UDP.RxPackets; got != cl.Routed[i] || got == 0 {
			t.Errorf("core %d: RxPackets %d, frames routed to it %d", i, got, cl.Routed[i])
		}
		sum += c.N.UDP.RxPackets
	}
	if rx := tb.Servers[0].N.Port.RxFrames; sum != rx {
		t.Errorf("cores received %d frames, server port %d", sum, rx)
	}
}

// A request steered to a core whose pinned pool is full is dropped by that
// core's stack: counted in its RxNoMem and reported to its OnDrop, while
// its sibling, whose pool has room, sees nothing.
func TestMultiKVRxNoMemOnOwningCore(t *testing.T) {
	gen := workloads.NewTwitter(800, 20)
	tb := NewCoreShards(NewTestbed(nic.MellanoxCX6()), 2, SysCornflakes)
	tb.Preload(gen.Records(), 1)
	var key []byte
	for _, r := range gen.Records() {
		if tb.Ring.Shard(r.Key) == 1 {
			key = r.Key
			break
		}
	}
	full := tb.Servers[1].N
	full.Alloc.SetCap(full.Alloc.Stats().SlotsInUse)
	var reasons []string
	full.UDP.OnDrop = func(_ []byte, reason string) { reasons = append(reasons, reason) }

	cl := tb.NewClient(0, SysCornflakes, 1)
	p := cl.BuildStep(1, workloads.Request{Op: workloads.OpGet, Keys: [][]byte{key}}, 0)
	if err := tb.Clients[0].UDP.SendContiguous(p, mem.UnpinnedSimAddr(p)); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Run()
	if full.UDP.RxNoMem != 1 || len(reasons) != 1 || reasons[0] != "rx-nomem" {
		t.Errorf("full core: RxNoMem %d, drops %v; want 1 and [rx-nomem]", full.UDP.RxNoMem, reasons)
	}
	if tb.Servers[1].Handled != 0 || tb.Servers[0].N.UDP.RxPackets != 0 {
		t.Errorf("handled %d on the full core, %d frames at its sibling; want 0 and 0",
			tb.Servers[1].Handled, tb.Servers[0].N.UDP.RxPackets)
	}
}

func TestMultiKVServerCorrectness(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		res, tb, _ := runMulti(t, cores, 100_000)
		for i, s := range tb.Servers {
			if s.Errors != 0 {
				t.Errorf("%d cores: core %d errors %d", cores, i, s.Errors)
			}
		}
		if res.BadResponses != 0 {
			t.Errorf("%d cores: bad responses %d", cores, res.BadResponses)
		}
		if res.Completed == 0 || res.AchievedRps < 0.9*res.SentRps {
			t.Errorf("%d cores: achieved %.0f of %.0f rps", cores, res.AchievedRps, res.SentRps)
		}
	}
}

func TestMultiKVShardingIsBalancedEnough(t *testing.T) {
	_, tb, _ := runMulti(t, 4, 200_000)
	var handled []uint64
	total := uint64(0)
	for _, c := range tb.Servers {
		handled = append(handled, c.Handled)
		total += c.Handled
	}
	if total == 0 {
		t.Fatal("no requests handled")
	}
	// Zipf traffic concentrates on hot keys, so shards are uneven — but no
	// shard should be completely idle or own everything.
	for i, h := range handled {
		frac := float64(h) / float64(total)
		if frac == 0 || frac > 0.9 {
			t.Errorf("shard %d handled %.0f%% of traffic: %v", i, frac*100, handled)
		}
	}
}

func TestMultiKVMoreCoresMoreThroughput(t *testing.T) {
	// At an offered load above one core's capacity, four cores complete
	// far more requests.
	res1, _, _ := runMulti(t, 1, 4_000_000)
	res4, _, _ := runMulti(t, 4, 4_000_000)
	if res4.AchievedRps < 2*res1.AchievedRps {
		t.Errorf("4 cores achieved %.0f vs 1 core %.0f rps; expected >2x",
			res4.AchievedRps, res1.AchievedRps)
	}
}
