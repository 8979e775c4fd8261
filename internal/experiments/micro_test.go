package experiments

import (
	"testing"

	"cornflakes/internal/driver"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

// TestMicroSendsThroughCoreStacks pins the microbenchmark's TX path: every
// response leaves through the owning core's UDP stack, which counts it as
// one packet with one zero-copy entry per buffer, and once the engine
// quiesces every allocator is back at its baseline and every shard buffer
// holds only the server's own reference.
func TestMicroSendsThroughCoreStacks(t *testing.T) {
	const cores, count, segSize = 2, 2, 512
	tb := driver.NewTestbedCfg(nic.MellanoxCX5Ex(), expCacheConfig())
	srv := newMicroServer(tb, cores, microSGSafe, segSize, count, 64*segSize)
	allocs := []*mem.Allocator{tb.Client.Alloc}
	for _, n := range srv.cores {
		allocs = append(allocs, n.Alloc)
	}
	baseline := make([]int64, len(allocs))
	for i, a := range allocs {
		baseline[i] = a.Stats().SlotsInUse
	}

	served := make([]uint64, cores)
	tb.Client.UDP.SetRecvHandler(func(p *mem.Buf) {
		if p.Len() != 8+count*segSize {
			t.Errorf("response of %d bytes, want %d", p.Len(), 8+count*segSize)
		}
		served[splitmix(wire.GetU64(p.Bytes()))%cores]++
		p.DecRef()
	})
	client := &microClient{shards: cores, perShard: srv.perShard()}
	const requests = 200
	for id := uint64(1); id <= requests; id++ {
		req := client.BuildStep(id, workloads.Request{}, 0)
		if err := tb.Client.UDP.SendContiguous(req, mem.UnpinnedSimAddr(req)); err != nil {
			t.Fatal(err)
		}
	}
	tb.Eng.Run()

	if served[0]+served[1] != requests || served[0] == 0 || served[1] == 0 {
		t.Fatalf("shards served %v of %d requests, want all of them on both shards", served, requests)
	}
	for i, n := range srv.cores {
		if n.UDP.TxPackets != served[i] {
			t.Errorf("core %d: stack sent %d packets, want the %d responses its shard served", i, n.UDP.TxPackets, served[i])
		}
		if n.UDP.TxZCEntries != count*served[i] {
			t.Errorf("core %d: %d zero-copy entries, want %d per response", i, n.UDP.TxZCEntries, count)
		}
	}
	for i, a := range allocs {
		if got := a.Stats().SlotsInUse; got != baseline[i] {
			t.Errorf("allocator %d: %d slots in use after quiesce, want the baseline %d", i, got, baseline[i])
		}
	}
	for i, shard := range srv.shards {
		for j, b := range shard {
			if rc := b.Refcount(); rc != 1 {
				t.Fatalf("shard %d buffer %d: refcount %d after quiesce, want 1", i, j, rc)
			}
		}
	}
}
