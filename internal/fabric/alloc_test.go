package fabric

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// TestSwitchForwardAllocFree pins the switch's per-frame path: once the
// ports' frame state is warm, one frame's send from endpoint A, ingress,
// switching delay, egress DMA, delivery and output-queue drain must not
// allocate. Every event on the path runs a callback bound when the switch
// or its ports were built, and the switch gives A's frame buffer back to
// A's pool once the egress port has gathered it, so A's next send reuses
// it.
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
// frame sent from endpoint A through the switch to endpoint B and run to
// delivery, on the setup TestSwitchForwardAllocFree pins.
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

// forwardRig plugs two endpoints into a fresh switch. cycle sends one
// 256-byte frame from A's port addressed to B and runs the engine until it
// is delivered; delivered counts B's arrivals.
func forwardRig() (sw *Switch, addrB byte, cycle func(), delivered *int) {
	eng := sim.NewEngine()
	sw = New(eng, Config{})
	epA, addrA := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	epB, addrB := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	delivered = new(int)
	epB.SetHandler(func(*nic.Frame) { *delivered++ })
	entries := []nic.SGEntry{{Data: frame(addrB, addrA, make([]byte, 256))}}
	cycle = func() {
		if err := epA.Send(entries); err != nil {
			panic(err)
		}
		eng.Run()
	}
	return sw, addrB, cycle, delivered
}

// TestSwitchDropAllocFree pins every way the switch drops a frame:
// each hands the frame's buffer straight back to the sending endpoint's
// pool, so a cycle of sends that the switch drops allocates nothing once
// the pool is warm, exactly as a forwarded frame does.
func TestSwitchDropAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		// cfg configures the switch; setup prepares the drop and returns
		// the destination byte A's frames carry.
		cfg   Config
		setup func(sw *Switch, addrA, addrB byte) byte
		// count reads the drop counter the path must advance.
		count func(sw *Switch, addrA, addrB byte) uint64
		// frames is how many frames each cycle sends back to back.
		frames int
	}{
		{
			name: "ingress-port-down",
			setup: func(sw *Switch, addrA, addrB byte) byte {
				sw.SetPortAdmin(addrA, false)
				return addrB
			},
			count:  func(sw *Switch, addrA, _ byte) uint64 { return sw.Stats(addrA).DownedIngress },
			frames: 1,
		},
		{
			name: "egress-port-down",
			setup: func(sw *Switch, _, addrB byte) byte {
				sw.SetPortAdmin(addrB, false)
				return addrB
			},
			count:  func(sw *Switch, _, addrB byte) uint64 { return sw.Stats(addrB).DownedEgress },
			frames: 1,
		},
		{
			name:   "misrouted",
			setup:  func(*Switch, byte, byte) byte { return 99 },
			count:  func(sw *Switch, _, _ byte) uint64 { return sw.Misrouted() },
			frames: 1,
		},
		{
			// A depth-1 output queue still holds the first of a burst when
			// the next arrives.
			name:   "egress-tail-drop",
			cfg:    Config{EgressDepth: 1},
			setup:  func(_ *Switch, _, addrB byte) byte { return addrB },
			count:  func(sw *Switch, _, addrB byte) uint64 { return sw.Stats(addrB).EgressDrops },
			frames: 4,
		},
		{
			name: "egress-send-refused",
			setup: func(sw *Switch, _, addrB byte) byte {
				sw.byAddr[addrB].link.InjectSendErr = func() error { return errRingFull }
				return addrB
			},
			count:  func(sw *Switch, _, addrB byte) uint64 { return sw.Stats(addrB).EgressDrops },
			frames: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			sw := New(eng, tc.cfg)
			epA, addrA := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
			epB, addrB := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
			epB.SetHandler(func(*nic.Frame) {})
			dst := tc.setup(sw, addrA, addrB)
			entries := []nic.SGEntry{{Data: frame(dst, addrA, make([]byte, 256))}}
			cycle := func() {
				for range tc.frames {
					if err := epA.Send(entries); err != nil {
						t.Fatal(err)
					}
				}
				eng.Run()
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("%.2f allocs per cycle of dropped frames (want 0)", allocs)
			}
			if n := tc.count(sw, addrA, addrB); n < 8+101 {
				t.Fatalf("drop counter read %d after %d cycles", n, 8+101)
			}
		})
	}
}

var errRingFull = errors.New("tx ring full")

// TestSwitchDuplicatedFramesNotRecycled pins the interceptor rule: copies
// of a frame that passed an interceptor are never given back, because a
// duplicate aliases the original's buffer. With every frame A sends
// duplicated on A's link, no port's pool ever holds one backing array
// twice, and B receives every payload intact, twice.
func TestSwitchDuplicatedFramesNotRecycled(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	epA, addrA := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	epB, addrB := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	epA.Interceptor = func(data []byte) []nic.Delivery {
		return []nic.Delivery{{Data: data}, {Data: data, Delay: 100 * sim.Nanosecond}}
	}
	got := map[byte]int{}
	epB.SetHandler(func(f *nic.Frame) {
		p := f.Data[len(f.Data)-256:]
		if !bytes.Equal(p, bytes.Repeat(p[:1], 256)) {
			t.Errorf("payload %d corrupted in flight", p[0])
		}
		got[p[0]]++
	})
	ports := []*nic.Port{epA, epB, sw.byAddr[addrA].link, sw.byAddr[addrB].link}
	const rounds, burst = 20, 8
	for r := 0; r < rounds; r++ {
		for i := 0; i < burst; i++ {
			b := byte(r*burst + i)
			if err := epA.Send([]nic.SGEntry{{Data: frame(addrB, addrA, bytes.Repeat([]byte{b}, 256))}}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		for _, p := range ports {
			seen := map[uintptr]bool{}
			for _, a := range pooled(p) {
				if seen[a] {
					t.Fatalf("round %d: a port's pool holds backing array %#x twice", r, a)
				}
				seen[a] = true
			}
		}
	}
	if len(got) != rounds*burst {
		t.Fatalf("B received %d distinct payloads, want %d", len(got), rounds*burst)
	}
	for b, n := range got {
		if n != 2 {
			t.Errorf("payload %d arrived %d times, want 2 (original and duplicate)", b, n)
		}
	}
}

// pooled returns the backing arrays in p's frame pool. The pool is the nic
// package's own state, so the test reads it through reflection.
func pooled(p *nic.Port) []uintptr {
	v := reflect.ValueOf(p).Elem().FieldByName("dataPool")
	out := make([]uintptr, v.Len())
	for i := range out {
		out[i] = v.Index(i).Pointer()
	}
	return out
}
