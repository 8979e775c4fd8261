package driver

import (
	"testing"

	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

func runMulti(t *testing.T, nCores int, rate float64) (loadgen.Result, *MultiKVServer) {
	t.Helper()
	gen := workloads.NewTwitter(800, 20)
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewMultiKVServer(tb, nCores, SysCornflakes)
	srv.Preload(gen.Records())
	res := loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: gen,
		Client: &MultiKVClient{
			Inner:  NewKVClient(tb.Client, SysCornflakes),
			NCores: nCores,
		},
		RatePerS: rate, Warmup: sim.Millisecond, Measure: 10 * sim.Millisecond, Seed: 21,
	})
	return res, srv
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
