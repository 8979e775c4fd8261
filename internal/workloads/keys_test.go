package workloads_test

import (
	"bytes"
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/driver"
	"cornflakes/internal/fabric"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// TestPrebuiltKeysReadOnly runs a short KV serve over a direct link
// (Twitter, puts included) and a short rack run (YCSB behind the switch,
// reads spread over replicas) and then checks that every key a generator
// hands out still reads key(prefix, width, i): nothing on the request
// path writes into a generated request's keys.
func TestPrebuiltKeysReadOnly(t *testing.T) {
	retry := loadgen.RetryPolicy{
		Deadline: 300 * sim.Microsecond, MaxRetries: 2,
		Backoff: 30 * sim.Microsecond, MaxBackoff: 240 * sim.Microsecond,
	}
	tw := workloads.NewTwitter(2048, 1)
	tb := driver.NewTestbed(nic.MellanoxCX6())
	driver.NewKVServer(tb.Server, driver.SysCornflakes).Preload(tw.Records())
	kv := loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP, Gen: tw,
		Client:   driver.NewKVClient(tb.Client, driver.SysCornflakes),
		RatePerS: 500e3, Warmup: sim.Millisecond / 2, Measure: 2 * sim.Millisecond,
		Seed: 1, Retry: retry,
	})

	y := workloads.NewYCSBTheta(400, 128, 1, 0.99)
	const shards, replicas = 4, 3
	c := driver.NewClusterTestbed(shards, 2, driver.SysCornflakes,
		nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
	c.Preload(y.Records(), replicas)
	cfgs := make([]loadgen.Config, len(c.Clients))
	for i, n := range c.Clients {
		cfgs[i] = loadgen.Config{
			Eng: n.Eng, Exec: c.Exec, EP: n.UDP, Gen: y,
			Client:   c.NewClient(i, driver.SysCornflakes, replicas),
			RatePerS: 300e3, Warmup: sim.Millisecond / 2, Measure: 2 * sim.Millisecond,
			Seed: 2 + uint64(i), ClientID: uint64(i + 1), Retry: retry,
		}
	}
	rack := loadgen.RunMany(cfgs)

	if kv.Completed == 0 || rack[0].Completed == 0 || rack[1].Completed == 0 {
		t.Fatalf("completed kv %d, rack %d and %d; want every run to serve", kv.Completed, rack[0].Completed, rack[1].Completed)
	}
	for _, g := range []struct {
		name   string
		keys   [][]byte
		recs   []workloads.KV
		prefix string
		width  int
	}{
		{"twitter", tw.PrebuiltKeys(), tw.Records(), "tw", 30},
		{"ycsb", y.PrebuiltKeys(), y.Records(), "user", 30},
	} {
		for i, k := range g.keys {
			if want := workloads.Key(g.prefix, g.width, i); !bytes.Equal(k, want) || !bytes.Equal(g.recs[i].Key, want) {
				t.Fatalf("%s key %d reads %q (record %q), want %q", g.name, i, k, g.recs[i].Key, want)
			}
		}
	}
}
