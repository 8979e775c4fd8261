package driver

import (
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/fabric"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// checkUnmetered requires that no client node's hierarchy was touched or
// allocated, and that every server's hit, missed and went to DRAM.
func checkUnmetered(t *testing.T, clients, servers []*Node) {
	t.Helper()
	for i, n := range clients {
		if n.Meter.Cache != nil {
			t.Errorf("client %d: its meter models a cache", i)
		}
		if s := n.Cache.Stats(); s != ([3]cachesim.LevelStats{}) || n.Cache.DRAMAccesses != 0 || n.Cache.Allocated() {
			t.Errorf("client %d: hierarchy reads %+v, %d DRAM accesses, allocated %v; want untouched",
				i, s, n.Cache.DRAMAccesses, n.Cache.Allocated())
		}
	}
	for i, n := range servers {
		s := n.Cache.Stats()
		if s[0].Hits == 0 || s[0].Misses == 0 || n.Cache.DRAMAccesses == 0 || !n.Cache.Allocated() {
			t.Errorf("server %d: hierarchy reads %+v, %d DRAM accesses, allocated %v; want all non-zero",
				i, s, n.Cache.DRAMAccesses, n.Cache.Allocated())
		}
	}
}

// Every builder that makes load-generator nodes makes them unmetered: after
// a short run on each, no client's hierarchy has done any cache-model work
// or allocated its level arrays, while every server's has.
func TestLoadGeneratorsUnmetered(t *testing.T) {
	gen := workloads.NewYCSB(200, 512, 2)
	run := func(t *testing.T, eng *sim.Engine, ep loadgen.Endpoint, cl loadgen.Client, g workloads.Generator) {
		t.Helper()
		res := loadgen.Run(loadgen.Config{
			Eng: eng, EP: ep, Gen: g, Client: cl,
			RatePerS: 50_000, Warmup: sim.Millisecond, Measure: 2 * sim.Millisecond, Seed: 3,
		})
		if res.Completed == 0 || res.BadResponses != 0 {
			t.Fatalf("completed %d, bad %d", res.Completed, res.BadResponses)
		}
	}
	t.Run("NewTestbed", func(t *testing.T) {
		tb := NewTestbed(nic.MellanoxCX6())
		NewKVServer(tb.Server, SysCornflakes).Preload(gen.Records())
		run(t, tb.Eng, tb.Client.UDP, NewKVClient(tb.Client, SysCornflakes), gen)
		checkUnmetered(t, []*Node{tb.Client}, []*Node{tb.Server})
	})
	t.Run("NewTCPTestbed", func(t *testing.T) {
		tb := NewTCPTestbed(nic.MellanoxCX6())
		NewEchoServer(tb.Server, EchoLib, SysCornflakes, 2048, 2)
		run(t, tb.Eng, tb.Client.TCP, &EchoClient{Mode: EchoLib, Sys: SysCornflakes, N: tb.Client, FieldSize: 2048, NumFields: 2}, genNop{})
		checkUnmetered(t, []*Node{tb.Client}, []*Node{tb.Server})
	})
	shards := func(c *ClusterTestbed) []*Node {
		var ns []*Node
		for _, s := range c.Servers {
			ns = append(ns, s.N)
		}
		return ns
	}
	t.Run("NewClusterTestbed", func(t *testing.T) {
		c := NewClusterTestbed(2, 2, SysCornflakes, nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
		c.Preload(gen.Records(), 1)
		cfgs := make([]loadgen.Config, len(c.Clients))
		for i := range cfgs {
			cfgs[i] = clusterCfg(c, i, c.NewClient(i, SysCornflakes, 1), gen, 40_000, 5)
		}
		for i, res := range loadgen.RunMany(cfgs) {
			if res.Completed == 0 {
				t.Fatalf("client %d completed nothing", i)
			}
		}
		checkUnmetered(t, c.Clients, shards(c))
	})
	t.Run("NewCoreShards", func(t *testing.T) {
		c := NewCoreShards(NewTestbed(nic.MellanoxCX6()), 2, SysCornflakes)
		c.Preload(gen.Records(), 1)
		run(t, c.Eng, c.Clients[0].UDP, c.NewClient(0, SysCornflakes, 1), gen)
		checkUnmetered(t, c.Clients, shards(c))
	})
}
