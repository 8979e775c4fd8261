package fabric

import (
	"testing"

	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// TestSwitchForwardAllocFree pins the switch's per-frame path: once the
// egress port's frame state is warm, one frame's ingress, switching delay,
// egress DMA, delivery and output-queue drain must not allocate. Every
// event on the path runs a callback bound when the switch or its ports were
// built.
func TestSwitchForwardAllocFree(t *testing.T) {
	sw, addrB, cycle, delivered := forwardRig()
	for i := 0; i < 8; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("switch forward allocated %.2f allocs per frame (want 0)", allocs)
	}
	if *delivered != 8+101 {
		t.Fatalf("delivered %d frames, want %d", *delivered, 8+101)
	}
	if st := sw.Stats(addrB); st.OutFrames != 8+101 || sw.byAddr[addrB].outstanding != 0 {
		t.Fatalf("egress: %d frames out, %d outstanding after drain", st.OutFrames, sw.byAddr[addrB].outstanding)
	}
}

// BenchmarkSwitchForward is the switch's micro-benchmark: one 256-byte
// frame forwarded from port A to port B and run to delivery, on the setup
// TestSwitchForwardAllocFree pins.
func BenchmarkSwitchForward(b *testing.B) {
	_, _, cycle, delivered := forwardRig()
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		cycle()
		n++
	}
	if *delivered != n {
		b.Fatalf("delivered %d of %d frames", *delivered, n)
	}
}

// forwardRig plugs two ports into a fresh switch. cycle ingresses one
// 256-byte frame from A addressed to B and runs the engine until it is
// delivered; delivered counts B's arrivals.
func forwardRig() (sw *Switch, addrB byte, cycle func(), delivered *int) {
	eng := sim.NewEngine()
	sw = New(eng, Config{})
	_, addrA := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	epB, addrB := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	delivered = new(int)
	epB.SetHandler(func(*nic.Frame) { *delivered++ })
	in := sw.byAddr[addrA]
	f := &nic.Frame{Data: frame(addrB, addrA, make([]byte, 256))}
	cycle = func() {
		sw.ingress(in, f)
		eng.Run()
	}
	return sw, addrB, cycle, delivered
}
