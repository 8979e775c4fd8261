package nic

import (
	"testing"

	"cornflakes/internal/sim"
)

// BenchmarkPortSend is the NIC frame path's micro-benchmark: one frame of
// a 64 B header and a 1 KiB payload entry from Port.Send through DMA, the
// wire and delivery to the peer's handler, on the steady state
// TestFramePathAllocFree pins.
func BenchmarkPortSend(b *testing.B) {
	eng := sim.NewEngine()
	a, p := newPair(eng)
	p.SetHandler(func(*Frame) {})
	entries := []SGEntry{{Data: make([]byte, 64)}, {Data: make([]byte, 1024)}}
	b.ReportAllocs()
	for b.Loop() {
		if err := a.Send(entries); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	if a.DeliveredFrames != a.TxFrames {
		b.Fatalf("%d of %d frames delivered", a.DeliveredFrames, a.TxFrames)
	}
}
