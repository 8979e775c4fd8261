// rpc: serializer-aware microservice chains on the rack. A request fans
// through a frontend, a line of mid tiers, and a layer of leaves; every
// hop decodes its inbound call and encodes its outbound one through the
// same cost-modelled serializers the single-node figures use. Mid tiers
// therefore marshal twice per unit of app work — the chain tax Cornflakes
// attacks — and a depth-4 chain pays 14 marshal units per request where a
// single tier pays 2.
//
// The demo runs three contrasts:
//
//  1. depth 1 vs depth 4 at the same per-tier load: watch latency stack
//     per hop and the per-request serialization bill grow superlinearly;
//  2. fan-out 2 at the deepest tier: fan-in waits on the slowest child,
//     so the tail amplifies further;
//  3. the RPCAcc-style deployment: each tier's serialization runs on a
//     NIC-side engine and the host-core bill collapses.
//
// Run with:
//
//	go run ./examples/rpc
package main

import (
	"fmt"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/rpc"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
	"math/rand/v2"
)

type constGen struct{}

func (constGen) Name() string                      { return "rpc-const" }
func (constGen) Records() []workloads.KV           { return nil }
func (constGen) Next(*rand.Rand) workloads.Request { return workloads.Request{Op: workloads.OpGet} }

func run(depth, fanout int, offload bool, rate float64) (loadgen.Result, *rpc.Chain) {
	c := rpc.NewChain(rpc.ChainConfig{
		Sys: driver.SysCornflakes, Profile: nic.MellanoxCX6(), Cache: cachesim.DefaultConfig(),
		Depth: depth, Fanout: fanout,
		AppCycles: 1500, ReqBytes: 64, FwdBytes: 64, RespBytes: 128,
		CallTimeout: 250 * sim.Microsecond,
		Offload:     offload,
	})
	res := loadgen.Run(loadgen.Config{
		Eng: c.Eng, EP: c.Client.N.UDP, Gen: constGen{}, Client: c.Client,
		RatePerS: rate,
		Warmup:   200 * sim.Microsecond, Measure: 2 * sim.Millisecond,
		Seed: 7, ClientID: 1,
		Retry: loadgen.RetryPolicy{Deadline: 800 * sim.Microsecond, MaxRetries: 1,
			Backoff: 60 * sim.Microsecond, MaxBackoff: 240 * sim.Microsecond},
		ShedID: driver.ShedID,
	})
	c.Eng.Run()
	return res, c
}

func serPerReq(c *rpc.Chain, completed uint64) float64 {
	rec, _ := c.HostReceipt()
	if completed == 0 {
		return 0
	}
	return (rec.Cycles[costmodel.CatSerialize] + rec.Cycles[costmodel.CatDeserialize]) /
		float64(completed)
}

func main() {
	fmt.Println("RPC chains: every hop pays its marshalling through the cost model")
	fmt.Println()

	const rate = 300_000

	// 1. Latency stacks per hop; serialization per request grows faster
	// than depth because mid tiers marshal on both the call and the reply
	// path.
	fmt.Println("  chain depth at matched load:")
	for _, d := range []int{1, 2, 4} {
		res, c := run(d, 0, false, rate)
		fmt.Printf("    depth %d: p50 %8v  p99 %8v  ser+des %5.0f cy/req\n",
			d, res.P50(), res.P99(), serPerReq(c, res.Completed))
	}
	fmt.Println()

	// 2. Fan-out: the deepest tier calls two leaves and waits for both, so
	// the reply is hostage to the slower child.
	res, c := run(4, 2, false, rate)
	fmt.Printf("  depth 4 + fan-out 2: p50 %v, p99 %v (fan-in waits on the slowest leaf)\n",
		res.P50(), res.P99())
	hostRec, handled := c.HostReceipt()
	fmt.Printf("    host serialize bill: %.0f cy over %d handled calls\n",
		hostRec.Cycles[costmodel.CatSerialize], handled)
	fmt.Println()

	// 3. Offload: same chain, serialization charged to per-tier NIC-side
	// engines (the RPCAcc/Dagger deployment) — the host-core bill
	// collapses and the cycles reappear on the engines' receipts.
	ores, oc := run(4, 2, true, rate)
	oHost, _ := oc.HostReceipt()
	oOff, _ := oc.OffloadReceipt()
	fmt.Printf("  same chain, NIC-side serialization: p50 %v, p99 %v\n", ores.P50(), ores.P99())
	fmt.Printf("    host serialize bill %.0f cy; NIC engines carried %.0f cy\n",
		oHost.Cycles[costmodel.CatSerialize],
		oOff.Cycles[costmodel.CatSerialize]+oOff.Cycles[costmodel.CatDeserialize])
	fmt.Println()
	fmt.Println("  (full grid with shape checks: go run ./cmd/cf-bench -exp rpc)")
}
