package main

import (
	"math/rand/v2"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/fabric"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/rpc"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// warmup is the simulated warmup every workload runs before its measured
// window: long enough to fill the modelled caches and reach the open-loop
// steady state, short next to the window.
const warmup = 5 * sim.Millisecond

// workload is one fixed benchmark configuration. Everything but the seed is
// frozen here, so a run's simulated work depends only on (workload, seed).
type workload struct {
	name string
	// measure is the simulated measurement window of one repetition.
	measure sim.Time
	// inputs generates what the seed determines apart from the topology:
	// the preload records and the request generator. It is not timed.
	inputs func(seed uint64) workloads.Generator
	// build constructs the topology on fresh engines and preloads it. It is
	// what setup_s times.
	build func(gen workloads.Generator) *topology
}

// topology is one built, preloaded system plus the client configurations
// that drive it. The harness fills in the per-run loadgen fields (windows,
// seeds, wrappers).
type topology struct {
	exec    sim.Runner
	clients []loadgen.Config
	// nodes is every node in the topology; servers is the subset whose core
	// is the measured resource (KV shards, RPC tiers).
	nodes   []*driver.Node
	servers []*driver.Node
	// rack is nil on a direct link; chain is nil unless the topology is an
	// RPC call graph.
	rack  *driver.Rack
	chain *rpc.Chain
	// receipt accumulates the KV servers' per-request cycle receipts.
	receipt costmodel.Receipt
	// callsPerReq is how many server calls one completed request costs.
	callsPerReq int
}

func (t *topology) addReceipt(r costmodel.Receipt) { t.receipt.Add(r) }

// hostReceipt returns the summed server-side cycle receipt.
func (t *topology) hostReceipt() costmodel.Receipt {
	if t.chain != nil {
		rec, _ := t.chain.HostReceipt()
		return rec
	}
	return t.receipt
}

// Retry policies. Every workload retries, so every measured request is
// disposed of exactly: completed, shed, or timed out.
var (
	kvRetry = loadgen.RetryPolicy{
		Deadline: 300 * sim.Microsecond, MaxRetries: 2,
		Backoff: 30 * sim.Microsecond, MaxBackoff: 240 * sim.Microsecond,
	}
	rpcRetry = loadgen.RetryPolicy{
		Deadline: 800 * sim.Microsecond, MaxRetries: 1,
		Backoff: 60 * sim.Microsecond, MaxBackoff: 240 * sim.Microsecond,
	}
)

// allWorkloads lists the benchmark's workloads in BENCHMARK.json order.
var allWorkloads = []workload{
	{
		// The paper's headline workload: the serializer and cache-model heavy
		// case, with puts exercising the copy-into-store write path next to
		// zero-copy reads.
		name:    "kv-twitter",
		measure: 300 * sim.Millisecond,
		inputs: func(seed uint64) workloads.Generator {
			return workloads.NewTwitter(32768, seed)
		},
		build: func(gen workloads.Generator) *topology {
			cache := cachesim.DefaultConfig()
			cache.L3.Size = 2 << 20
			tb := driver.NewTestbedCfg(nic.MellanoxCX6(), cache)
			srv := driver.NewKVServer(tb.Server, driver.SysCornflakes)
			srv.Preload(gen.Records())
			t := &topology{
				exec:        tb.Eng,
				nodes:       []*driver.Node{tb.Server, tb.Client},
				servers:     []*driver.Node{tb.Server},
				callsPerReq: 1,
			}
			srv.OnReceipt = t.addReceipt
			t.clients = []loadgen.Config{{
				Eng: tb.Eng, EP: tb.Client.UDP, Gen: gen,
				Client:   driver.NewKVClient(tb.Client, driver.SysCornflakes),
				RatePerS: 1.4e6, Retry: kvRetry,
			}}
			return t
		},
	},
	{
		// Engine and fabric heavy with light serialization: eight shards
		// behind the ToR switch, hot keys spread over three replicas.
		name:    "rack-ycsb",
		measure: 20 * sim.Millisecond,
		inputs: func(uint64) workloads.Generator {
			return workloads.NewYCSBTheta(400, 128, 1, 0.99)
		},
		build: func(gen workloads.Generator) *topology {
			const shards, replicas = 8, 3
			c := driver.NewClusterTestbed(shards, shards, driver.SysCornflakes,
				nic.MellanoxCX6(), cachesim.DefaultConfig(), fabric.Config{})
			c.Preload(gen.Records(), replicas)
			t := &topology{
				exec:        c.Exec,
				nodes:       c.Nodes,
				rack:        c.Rack,
				callsPerReq: 1,
			}
			for _, s := range c.Servers {
				s.OnReceipt = t.addReceipt
				t.servers = append(t.servers, s.N)
			}
			for i, n := range c.Clients {
				t.clients = append(t.clients, loadgen.Config{
					Eng: n.Eng, Exec: c.Exec, EP: n.UDP, Gen: gen,
					Client:   c.NewClient(i, driver.SysCornflakes, replicas),
					RatePerS: 900e3, Retry: kvRetry,
				})
			}
			return t
		},
	},
	{
		// Every request crosses a four-tier chain and a two-leaf fan-out:
		// many events, fan-in timers and per-hop codec work per request.
		name:    "rpc-fanout",
		measure: 300 * sim.Millisecond,
		inputs:  func(uint64) workloads.Generator { return rpcGen{} },
		build: func(workloads.Generator) *topology {
			return buildChain(4, 2, 300e3)
		},
	},
	{
		// The same RPC code without fan-out, driven near the chain's stable
		// limit (busiest tier core about 0.72 busy): queueing-heavy, so it is
		// the workload where tail latency moves first under load.
		name:    "rpc-chain",
		measure: 400 * sim.Millisecond,
		inputs:  func(uint64) workloads.Generator { return rpcGen{} },
		build: func(workloads.Generator) *topology {
			return buildChain(4, 0, 450e3)
		},
	},
}

// buildChain builds an RPC call graph of the given depth and fan-out driven
// by one client at rate requests per second.
func buildChain(depth, fanout int, rate float64) *topology {
	c := rpc.NewChain(rpc.ChainConfig{
		Sys: driver.SysCornflakes, Profile: nic.MellanoxCX6(), Cache: cachesim.DefaultConfig(),
		Depth: depth, Fanout: fanout,
		AppCycles: 1500, ReqBytes: 64, FwdBytes: 64, RespBytes: 128,
		CallTimeout: 250 * sim.Microsecond,
	})
	t := &topology{
		exec:        c.Exec,
		nodes:       c.Nodes,
		rack:        c.Rack,
		chain:       c,
		callsPerReq: len(c.Services),
	}
	for _, s := range c.Services {
		t.servers = append(t.servers, s.N)
	}
	t.clients = []loadgen.Config{{
		Eng: c.Client.N.Eng, Exec: c.Exec, EP: c.Client.N.UDP, Gen: rpcGen{},
		Client: c.Client, RatePerS: rate, Retry: rpcRetry,
	}}
	return t
}

// rpcGen feeds the RPC client, which ignores request content: what is under
// test is the call graph.
type rpcGen struct{}

func (rpcGen) Name() string                      { return "rpc-const" }
func (rpcGen) Records() []workloads.KV           { return nil }
func (rpcGen) Next(*rand.Rand) workloads.Request { return workloads.Request{Op: workloads.OpGet} }

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
