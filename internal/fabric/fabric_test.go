package fabric

import (
	"bytes"
	"fmt"
	"testing"

	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
)

// frame builds a minimal addressed frame: the netstack header shape (42
// bytes, marker + dst + src) followed by payload.
func frame(dst, src byte, payload []byte) []byte {
	f := make([]byte, netstack.PacketHeaderLen+len(payload))
	f[0] = 0x42
	f[netstack.HdrDstOff] = dst
	f[netstack.HdrSrcOff] = src
	copy(f[netstack.PacketHeaderLen:], payload)
	return f
}

func TestSwitchRoutesByAddress(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	epA, addrA := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	epB, addrB := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	epC, _ := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	if addrA == addrB || addrA == 0 || addrB == 0 {
		t.Fatalf("bad addresses %d, %d", addrA, addrB)
	}

	var gotB, gotC [][]byte
	epB.SetHandler(func(f *nic.Frame) { gotB = append(gotB, append([]byte(nil), f.Data...)) })
	epC.SetHandler(func(f *nic.Frame) { gotC = append(gotC, append([]byte(nil), f.Data...)) })

	sent := frame(addrB, addrA, []byte("hello shard B"))
	if err := epA.Send([]nic.SGEntry{{Data: sent}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if len(gotB) != 1 {
		t.Fatalf("B received %d frames, want 1", len(gotB))
	}
	if len(gotC) != 0 {
		t.Fatalf("C received %d frames, want 0", len(gotC))
	}
	if !bytes.Equal(gotB[0], sent) {
		t.Error("frame bytes corrupted in transit")
	}
	if st := sw.Stats(addrA); st.InFrames != 1 {
		t.Errorf("ingress count on A's port = %d, want 1", st.InFrames)
	}
	if st := sw.Stats(addrB); st.OutFrames != 1 {
		t.Errorf("egress count on B's port = %d, want 1", st.OutFrames)
	}
	if sw.Misrouted() != 0 {
		t.Errorf("misrouted = %d, want 0", sw.Misrouted())
	}
}

func TestSwitchDropsUnroutable(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	epA, addrA := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	epB, _ := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	received := 0
	epB.SetHandler(func(f *nic.Frame) { received++ })

	// Address 0 is reserved-unroutable; 200 is unassigned.
	epA.Send([]nic.SGEntry{{Data: frame(0, addrA, []byte("nowhere"))}})
	epA.Send([]nic.SGEntry{{Data: frame(200, addrA, []byte("nobody"))}})
	eng.Run()

	if received != 0 {
		t.Errorf("unroutable frames delivered: %d", received)
	}
	if sw.Misrouted() != 2 {
		t.Errorf("misrouted = %d, want 2", sw.Misrouted())
	}
}

// Many senders converging on one egress port must queue behind each other
// at that port's line rate: the fabric's whole reason to exist.
func TestSwitchEgressContention(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	const senders = 4
	var eps []*nic.Port
	var addrs []byte
	for i := 0; i < senders; i++ {
		ep, a := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
		eps = append(eps, ep)
		addrs = append(addrs, a)
	}
	hot, hotAddr := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	var arrivals []sim.Time
	hot.SetHandler(func(f *nic.Frame) { arrivals = append(arrivals, eng.Now()) })

	const perSender = 25
	payload := make([]byte, 4000)
	for i, ep := range eps {
		for k := 0; k < perSender; k++ {
			if err := ep.Send([]nic.SGEntry{{Data: frame(hotAddr, addrs[i], payload)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Run()

	if len(arrivals) != senders*perSender {
		t.Fatalf("delivered %d frames, want %d", len(arrivals), senders*perSender)
	}
	st := sw.Stats(hotAddr)
	if st.OutFrames != senders*perSender {
		t.Errorf("egress frames = %d", st.OutFrames)
	}
	if st.MaxBacklog < 2 {
		t.Errorf("max backlog = %d, want ≥ 2 under 4-way convergence", st.MaxBacklog)
	}
	if st.ContentionNs <= 0 {
		t.Errorf("contention = %v ns, want > 0 under convergence", st.ContentionNs)
	}
	// The cold senders' own egress queues saw nothing.
	for _, a := range addrs {
		if cs := sw.Stats(a); cs.OutFrames != 0 || cs.ContentionNs != 0 {
			t.Errorf("cold port %d has egress traffic: %+v", a, cs)
		}
	}
}

func TestSwitchBoundedEgressQueue(t *testing.T) {
	eng := sim.NewEngine()
	// A 10G egress fed by a 100G sender: the output queue must fill and
	// tail-drop once it hits the 4-frame bound.
	sw := New(eng, Config{Port: TorPortProfile(10), EgressDepth: 4})
	src, srcAddr := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	dst, dstAddr := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	received := 0
	dst.SetHandler(func(f *nic.Frame) { received++ })

	const blast = 80
	payload := make([]byte, 8000)
	for k := 0; k < blast; k++ {
		if err := src.Send([]nic.SGEntry{{Data: frame(dstAddr, srcAddr, payload)}}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()

	st := sw.Stats(dstAddr)
	if st.EgressDrops == 0 {
		t.Error("no egress drops despite 80-frame blast into a 4-deep queue")
	}
	if uint64(received) != st.OutFrames {
		t.Errorf("delivered %d but egress posted %d", received, st.OutFrames)
	}
	if got := st.OutFrames + st.EgressDrops; got != blast {
		t.Errorf("out+drops = %d, want %d (conservation)", got, blast)
	}
	if st.MaxBacklog > 4 {
		t.Errorf("backlog %d exceeded the 4-frame bound", st.MaxBacklog)
	}
}

// An admin-downed port swallows traffic loudly in both directions: frames
// from the endpoint count as DownedIngress, frames to it as DownedEgress,
// and the handler is never invoked — then delivery resumes after re-up.
func TestSwitchAdminDown(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	epA, addrA := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	epB, addrB := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	received := 0
	epB.SetHandler(func(f *nic.Frame) { received++ })

	if !sw.PortAdminUp(addrA) || !sw.PortAdminUp(addrB) {
		t.Fatal("ports should start admin-up")
	}

	// Down A's port: A's sends die at ingress.
	sw.SetPortAdmin(addrA, false)
	if sw.PortAdminUp(addrA) {
		t.Fatal("PortAdminUp after SetPortAdmin(false)")
	}
	epA.Send([]nic.SGEntry{{Data: frame(addrB, addrA, []byte("into the void"))}})
	eng.Run()
	if received != 0 {
		t.Errorf("frame delivered through a downed ingress: %d", received)
	}
	sa := sw.Stats(addrA)
	if sa.DownedIngress != 1 || sa.InFrames != 1 {
		t.Errorf("A stats = %+v, want InFrames=1 DownedIngress=1", sa)
	}

	// Re-up A, down B: the frame routes but dies at B's egress.
	sw.SetPortAdmin(addrA, true)
	sw.SetPortAdmin(addrB, false)
	epA.Send([]nic.SGEntry{{Data: frame(addrB, addrA, []byte("still lost"))}})
	eng.Run()
	if received != 0 {
		t.Errorf("frame delivered through a downed egress: %d", received)
	}
	if sb := sw.Stats(addrB); sb.DownedEgress != 1 {
		t.Errorf("B stats = %+v, want DownedEgress=1", sb)
	}

	// Both up again: traffic flows.
	sw.SetPortAdmin(addrB, true)
	epA.Send([]nic.SGEntry{{Data: frame(addrB, addrA, []byte("back online"))}})
	eng.Run()
	if received != 1 {
		t.Errorf("delivered %d after re-up, want 1", received)
	}

	// Conservation across the whole episode.
	ts := sw.TotalStats()
	// 3 in = 1 downed-in + 1 downed-out + 1 forwarded.
	if got := ts.DownedIngress + ts.DownedEgress + ts.OutFrames; got != ts.InFrames {
		t.Errorf("conservation: in=%d downedIn=%d downedOut=%d out=%d",
			ts.InFrames, ts.DownedIngress, ts.DownedEgress, ts.OutFrames)
	}

	// Unknown addresses are inert.
	sw.SetPortAdmin(200, false)
	if !sw.PortAdminUp(200) {
		t.Error("unknown address reports admin-down")
	}
}

func TestSwitchDeterministic(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine()
		sw := New(eng, Config{EgressDepth: 8})
		var eps []*nic.Port
		var addrs []byte
		for i := 0; i < 3; i++ {
			ep, a := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
			eps = append(eps, ep)
			addrs = append(addrs, a)
		}
		for i, ep := range eps {
			for k := 0; k < 30; k++ {
				target := addrs[(i+1+k)%3]
				ep.Send([]nic.SGEntry{{Data: frame(target, addrs[i], make([]byte, 100+i*13+k*7))}})
			}
		}
		eng.Run()
		out := ""
		for _, a := range sw.Ports() {
			out += fmt.Sprintf("%d:%+v\n", a, sw.Stats(a))
		}
		return out + fmt.Sprintf("mis=%d total=%+v", sw.Misrouted(), sw.TotalStats())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("switch stats differ across identical runs:\n%s\n----\n%s", a, b)
	}
}

// deliveryTime sends one frame A→B through a switch built with cfg and
// returns the simulated time at which B's handler ran.
func deliveryTime(t *testing.T, cfg Config) sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	sw := New(eng, cfg)
	epA, addrA := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	epB, addrB := sw.PlugIn(nic.MellanoxCX6(), sim.Microsecond)
	var at sim.Time
	epB.SetHandler(func(f *nic.Frame) { at = eng.Now() })
	if err := epA.Send([]nic.SGEntry{{Data: frame(addrB, addrA, []byte("probe"))}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if at == 0 {
		t.Fatal("frame was not delivered")
	}
	return at
}

// TestConfigZeroLatencyMeansDefault pins the zero-value convention:
// LatencyNs == 0 means "unset, use the 300 ns default".
func TestConfigZeroLatencyMeansDefault(t *testing.T) {
	def := deliveryTime(t, Config{})                  // zero value → 300 ns default
	pinned := deliveryTime(t, Config{LatencyNs: 300}) // explicit default
	if def != pinned {
		t.Errorf("zero-value LatencyNs delivered at %v, explicit 300 at %v; zero must mean the 300 ns default", def, pinned)
	}
}
