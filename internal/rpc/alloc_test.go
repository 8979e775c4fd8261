package rpc

import (
	"testing"

	"cornflakes/internal/driver"
	"cornflakes/internal/mem"
	"cornflakes/internal/workloads"
)

// TestChainCallAllocFree pins one call through a depth-2, fan-out-2
// Cornflakes chain: once the pools are warm, the client's call frame, the
// frontend's call to the second tier, that tier's fan-out to its two
// leaves, their replies, the fan-in and the replies back up to the client
// must not allocate.
func TestChainCallAllocFree(t *testing.T) {
	c := NewChain(chainCfg(driver.SysCornflakes, 2, 2))
	replies := 0
	c.Client.N.UDP.SetRecvHandler(func(p *mem.Buf) {
		replies++
		p.DecRef()
	})
	id := uint64(0)
	cycle := func() {
		id++
		frame := c.Client.BuildStep(id, workloads.Request{}, 0)
		if err := c.Client.N.UDP.SendContiguous(frame, 0); err != nil {
			t.Fatal(err)
		}
		c.Eng.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("one chain call allocated %.2f allocs (want 0)", allocs)
	}
	if replies != 8+101 {
		t.Fatalf("%d replies for %d calls", replies, 8+101)
	}
	for _, s := range c.Services {
		if s.Errors != 0 {
			t.Fatalf("service %d: %d errors", s.N.UDP.LocalAddr, s.Errors)
		}
	}
	if last := c.Services[1]; last.ChildCalls != 2*(8+101) {
		t.Fatalf("second tier made %d child calls for %d calls, want two per call", last.ChildCalls, 8+101)
	}
}
