package nic

import (
	"bytes"
	"testing"

	"cornflakes/internal/sim"
)

func newPair(eng *sim.Engine) (*Port, *Port) {
	return Link(eng, MellanoxCX6(), MellanoxCX6(), sim.FromNanos(1000))
}

func TestSendDeliversGatheredBytes(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	var got []byte
	b.SetHandler(func(f *Frame) { got = append([]byte(nil), f.Data...) })
	err := a.Send([]SGEntry{
		{Data: []byte("hello ")},
		{Data: []byte("scatter ")},
		{Data: []byte("gather")},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(got, []byte("hello scatter gather")) {
		t.Errorf("delivered %q", got)
	}
	if a.TxFrames != 1 || b.RxFrames != 1 {
		t.Errorf("frames: tx=%d rx=%d", a.TxFrames, b.RxFrames)
	}
	if a.TxSGEntries != 3 {
		t.Errorf("TxSGEntries = %d, want 3", a.TxSGEntries)
	}
	if a.Peer() != b || b.Peer() != a {
		t.Error("Peer does not return the far end of the link")
	}
}

func TestSendEntryLimit(t *testing.T) {
	eng := sim.NewEngine()
	a, _ := Link(eng, IntelE810(), IntelE810(), 0)
	entries := make([]SGEntry, 9)
	for i := range entries {
		entries[i] = SGEntry{Data: []byte{byte(i)}}
	}
	err := a.Send(entries)
	var tooMany *ErrTooManyEntries
	if err == nil {
		t.Fatal("9 entries accepted by E810 (limit 8)")
	}
	if e, ok := err.(*ErrTooManyEntries); ok {
		tooMany = e
	} else {
		t.Fatalf("error type %T", err)
	}
	if tooMany.Entries != 9 || tooMany.Max != 8 {
		t.Errorf("error fields %+v", tooMany)
	}
	if err := a.Send(entries[:8]); err != nil {
		t.Errorf("8 entries rejected: %v", err)
	}
}

func TestSendEmpty(t *testing.T) {
	eng := sim.NewEngine()
	a, _ := newPair(eng)
	if err := a.Send(nil); err == nil {
		t.Error("empty gather list accepted")
	}
}

// relFunc adapts a closure to SGReleaser.
type relFunc func()

func (f relFunc) ReleaseSG(any) { f() }

// dropIf is an Interceptor that loses the frames drop selects and
// delivers the rest unchanged.
func dropIf(drop func(data []byte) bool) Interceptor {
	return func(data []byte) []Delivery {
		if drop(data) {
			return nil
		}
		return []Delivery{{Data: data}}
	}
}

func TestReleaseFiresAfterDMARead(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	var releasedAt, deliveredAt sim.Time
	b.SetHandler(func(f *Frame) { deliveredAt = eng.Now() })
	a.Send([]SGEntry{{
		Data: make([]byte, 1024),
		Rel:  relFunc(func() { releasedAt = eng.Now() }),
	}})
	eng.Run()
	if releasedAt == 0 {
		t.Fatal("completion hook never fired")
	}
	if deliveredAt <= releasedAt {
		t.Errorf("delivery (%v) should be after DMA completion (%v)", deliveredAt, releasedAt)
	}
	if releasedAt <= 0 {
		t.Error("release should take nonzero simulated time")
	}
}

func TestSnapshotAtDMATime(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	buf := []byte("original")
	var got []byte
	b.SetHandler(func(f *Frame) { got = f.Data })
	a.Send([]SGEntry{{Data: buf, Rel: relFunc(func() {
		// Mutation after DMA completes must not affect the wire bytes.
		copy(buf, "MUTATED!")
	})}})
	eng.Run()
	if string(got) != "original" {
		t.Errorf("frame saw post-DMA mutation: %q", got)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	arrival := func(size int) sim.Time {
		eng := sim.NewEngine()
		a, b := Link(eng, MellanoxCX6(), MellanoxCX6(), sim.FromNanos(1000))
		var at sim.Time
		b.SetHandler(func(f *Frame) { at = eng.Now() })
		a.Send([]SGEntry{{Data: make([]byte, size)}})
		eng.Run()
		if at == 0 {
			t.Fatalf("%dB frame never delivered", size)
		}
		return at
	}
	small, large := arrival(64), arrival(9000)
	if large <= small {
		t.Errorf("9000B frame (%v) should arrive later than 64B frame (%v)", large, small)
	}
	// 9000 B at 100 Gbps is 720 ns of wire time; delta should be at least
	// the extra serialization plus DMA time.
	if delta := large - small; delta < sim.FromNanos(700) {
		t.Errorf("delta %v too small for serialization delay", delta)
	}
}

func TestBackToBackFramesQueueOnWire(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	var arrivals []sim.Time
	b.SetHandler(func(f *Frame) { arrivals = append(arrivals, eng.Now()) })
	for i := 0; i < 3; i++ {
		a.Send([]SGEntry{{Data: make([]byte, 9000)}})
	}
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	wire := sim.FromNanos(9000 * 8 / 100.0)
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i] - arrivals[i-1]; gap < wire {
			t.Errorf("frames %d,%d arrive %v apart, want >= wire time %v", i-1, i, gap, wire)
		}
	}
}

func TestMoreEntriesMoreLatency(t *testing.T) {
	// The per-entry PCIe cost should make a 32-entry frame slower than a
	// 1-entry frame of the same size.
	measure := func(entries int) sim.Time {
		eng := sim.NewEngine()
		a, b := newPair(eng)
		var at sim.Time
		b.SetHandler(func(f *Frame) { at = eng.Now() })
		total := 2048
		var list []SGEntry
		per := total / entries
		for i := 0; i < entries; i++ {
			list = append(list, SGEntry{Data: make([]byte, per)})
		}
		a.Send(list)
		eng.Run()
		return at
	}
	if measure(32) <= measure(1) {
		t.Error("32-entry gather should take longer than 1-entry")
	}
}

func TestNoHandlerDropsFrame(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	a.Send([]SGEntry{{Data: []byte("x")}})
	eng.Run() // must not panic
	if b.RxFrames != 1 {
		t.Errorf("RxFrames = %d (frame counted even when dropped)", b.RxFrames)
	}
}

func TestBidirectional(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	var aGot, bGot string
	a.SetHandler(func(f *Frame) { aGot = string(f.Data) })
	b.SetHandler(func(f *Frame) { bGot = string(f.Data) })
	a.Send([]SGEntry{{Data: []byte("to-b")}})
	b.Send([]SGEntry{{Data: []byte("to-a")}})
	eng.Run()
	if aGot != "to-a" || bGot != "to-b" {
		t.Errorf("aGot=%q bGot=%q", aGot, bGot)
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{MellanoxCX5Ex(), MellanoxCX6(), IntelE810()} {
		if p.MaxSGEntries <= 0 || p.LinkGbps <= 0 || p.Name == "" {
			t.Errorf("invalid profile %+v", p)
		}
	}
	if IntelE810().MaxSGEntries != 8 {
		t.Error("E810 must have the 8-entry SG limit from §6.3")
	}
}
