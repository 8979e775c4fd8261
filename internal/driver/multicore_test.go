package driver

import (
	"testing"

	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

func runMulti(t *testing.T, nCores int, rate float64) (loadgen.Result, *MultiKVServer) {
	t.Helper()
	res, srv, _ := runMultiVia(t, nCores, rate, func(c loadgen.Client) loadgen.Client { return c })
	return res, srv
}

// runMultiVia runs the multi-core server with the client wrapped by wrap,
// so a test can watch every request step the generator builds.
func runMultiVia(t *testing.T, nCores int, rate float64, wrap func(loadgen.Client) loadgen.Client) (loadgen.Result, *MultiKVServer, *Testbed) {
	t.Helper()
	gen := workloads.NewTwitter(800, 20)
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewMultiKVServer(tb, nCores, SysCornflakes)
	srv.Preload(gen.Records())
	res := loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: gen,
		Client: wrap(&MultiKVClient{
			Inner:  NewKVClient(tb.Client, SysCornflakes),
			NCores: nCores,
		}),
		RatePerS: rate, Warmup: sim.Millisecond, Measure: 10 * sim.Millisecond, Seed: 21,
	})
	return res, srv, tb
}

// steerTally wraps a MultiKVClient and counts the frames it addresses to
// each core: the destination byte its BuildStep leaves on the client's
// stack is what the server port steers on.
type steerTally struct {
	loadgen.Client
	udp *netstack.UDP
	per []uint64
}

func (c *steerTally) BuildStep(id uint64, req workloads.Request, step int) []byte {
	p := c.Client.BuildStep(id, req, step)
	c.per[int(c.udp.DstAddr)%len(c.per)]++
	return p
}

// Every request reaches its core through that core's own UDP stack: each
// core's RxPackets equals the frames steered to it, and together they
// account for every frame the shared server port received.
func TestMultiKVCoresReceiveThroughOwnStacks(t *testing.T) {
	const nCores = 4
	var tally *steerTally
	res, srv, tb := runMultiVia(t, nCores, 200_000, func(c loadgen.Client) loadgen.Client {
		tally = &steerTally{Client: c, udp: c.(*MultiKVClient).Inner.N.UDP, per: make([]uint64, nCores)}
		return tally
	})
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	sum := uint64(0)
	for i, c := range srv.Cores {
		if got := c.N.UDP.RxPackets; got != tally.per[i] || got == 0 {
			t.Errorf("core %d: RxPackets %d, frames steered to it %d", i, got, tally.per[i])
		}
		sum += c.N.UDP.RxPackets
	}
	if rx := tb.Server.Port.RxFrames; sum != rx {
		t.Errorf("cores received %d frames, server port %d", sum, rx)
	}
}

// A request steered to a core whose pinned pool is full is dropped by that
// core's stack: counted in its RxNoMem and reported to its OnDrop, while
// its sibling, whose pool has room, sees nothing.
func TestMultiKVRxNoMemOnOwningCore(t *testing.T) {
	gen := workloads.NewTwitter(800, 20)
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewMultiKVServer(tb, 2, SysCornflakes)
	srv.Preload(gen.Records())
	var key []byte
	for _, r := range gen.Records() {
		if shardOf(r.Key, 2) == 1 {
			key = r.Key
			break
		}
	}
	full := srv.Cores[1].N
	full.Alloc.SetCap(full.Alloc.Stats().SlotsInUse)
	var reasons []string
	full.UDP.OnDrop = func(_ []byte, reason string) { reasons = append(reasons, reason) }

	cl := &MultiKVClient{Inner: NewKVClient(tb.Client, SysCornflakes), NCores: 2}
	p := cl.BuildStep(1, workloads.Request{Op: workloads.OpGet, Keys: [][]byte{key}}, 0)
	if err := tb.Client.UDP.SendContiguous(p, mem.UnpinnedSimAddr(p)); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Run()
	if full.UDP.RxNoMem != 1 || len(reasons) != 1 || reasons[0] != "rx-nomem" {
		t.Errorf("full core: RxNoMem %d, drops %v; want 1 and [rx-nomem]", full.UDP.RxNoMem, reasons)
	}
	if srv.Cores[1].Handled != 0 || srv.Cores[0].N.UDP.RxPackets != 0 {
		t.Errorf("handled %d on the full core, %d frames at its sibling; want 0 and 0",
			srv.Cores[1].Handled, srv.Cores[0].N.UDP.RxPackets)
	}
}

func TestMultiKVServerCorrectness(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		res, srv := runMulti(t, cores, 100_000)
		if srv.Errors() != 0 {
			t.Errorf("%d cores: server errors %d", cores, srv.Errors())
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
	_, srv := runMulti(t, 4, 200_000)
	var handled []uint64
	total := uint64(0)
	for _, c := range srv.Cores {
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
	res1, _ := runMulti(t, 1, 4_000_000)
	res4, _ := runMulti(t, 4, 4_000_000)
	if res4.AchievedRps < 2*res1.AchievedRps {
		t.Errorf("4 cores achieved %.0f vs 1 core %.0f rps; expected >2x",
			res4.AchievedRps, res1.AchievedRps)
	}
}

func TestShardOfDeterministic(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte("user123"), []byte("tw000042")}
	for _, k := range keys {
		if shardOf(k, 4) != shardOf(k, 4) {
			t.Error("shardOf not deterministic")
		}
		if shardOf(k, 4) >= 4 {
			t.Error("shardOf out of range")
		}
	}
}
