package nic

import (
	"testing"

	"cornflakes/internal/sim"
)

// TestSendBatchAmortizesDoorbells: a burst sent as one Send and N−1
// SendBehinds pays one doorbell; its last frame departs earlier than the
// same frames sent individually, by exactly (N−1) doorbells of DMA
// occupancy when the DMA engine is the bottleneck.
func TestSendBatchAmortizesDoorbells(t *testing.T) {
	// Tiny frames on a CX-6 with a fast (1 Tbps) wire: frame spacing is
	// DMA-bound in both runs — even with the doorbell amortized away the
	// residual per-frame occupancy (2 + 64*8/220 ≈ 4.3 ns) exceeds the
	// 0.5 ns wire time — so the doorbell saving is exactly visible in the
	// last arrival time.
	const frames = 16
	prof := MellanoxCX6()
	prof.LinkGbps = 1000
	run := func(batch bool) (sim.Time, uint64) {
		eng := sim.NewEngine()
		a, b := Link(eng, prof, prof, sim.FromNanos(1000))
		var last sim.Time
		var got int
		b.SetHandler(func(f *Frame) { got++; last = eng.Now() })
		for i := 0; i < frames; i++ {
			entries := []SGEntry{{Data: make([]byte, 64)}}
			send := a.Send
			if batch && i > 0 {
				send = a.SendBehind
			}
			if err := send(entries); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		if got != frames {
			t.Fatalf("delivered %d/%d", got, frames)
		}
		return last, a.TxDoorbells
	}
	soloLast, soloDB := run(false)
	batchLast, batchDB := run(true)
	if soloDB != frames || batchDB != 1 {
		t.Errorf("doorbells: solo %d (want %d), batch %d (want 1)", soloDB, frames, batchDB)
	}
	saved := soloLast - batchLast
	want := sim.FromNanos(float64(frames-1) * prof.PacketOccupancyNs)
	if saved != want {
		t.Errorf("batch saved %v, want exactly %v ((N-1) doorbells)", saved, want)
	}
}

// TestSendBehindRefusesBadFrame: a frame exceeding MaxSGEntries behind a
// doorbell is refused on its own — no reference taken, nothing released,
// not counted — and the frames around it still post.
func TestSendBehindRefusesBadFrame(t *testing.T) {
	prof := MellanoxCX6()
	prof.MaxSGEntries = 2
	eng := sim.NewEngine()
	a, b := Link(eng, prof, MellanoxCX6(), 0)
	var delivered int
	b.SetHandler(func(f *Frame) { delivered++ })
	released := make([]bool, 3)
	mk := func(i, entries int) []SGEntry {
		var l []SGEntry
		for j := 0; j < entries; j++ {
			e := SGEntry{Data: []byte{byte(i)}}
			if j == 0 {
				idx := i
				e.Rel = relFunc(func() { released[idx] = true })
			}
			l = append(l, e)
		}
		return l
	}
	if err := a.Send(mk(0, 1)); err != nil {
		t.Fatal(err)
	}
	err := a.SendBehind(mk(1, 3)) // over the limit
	if _, ok := err.(*ErrTooManyEntries); !ok {
		t.Errorf("error %T %v, want *ErrTooManyEntries", err, err)
	}
	if err := a.SendBehind(mk(2, 1)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if delivered != 2 {
		t.Errorf("delivered %d frames, want 2", delivered)
	}
	if !released[0] || released[1] || !released[2] {
		t.Errorf("releases %v: only the posted frames' buffers may be released", released)
	}
	if a.TxFrames != 2 || a.TxDoorbells != 1 {
		t.Errorf("TxFrames = %d, TxDoorbells = %d, want 2 and 1", a.TxFrames, a.TxDoorbells)
	}
}

// TestDeliveredCountersUnderLoss pins the satellite-1 fix: TxFrames/TxBytes
// count posts, DeliveredFrames/DeliveredBytes count intact arrivals, and
// under injected loss the two diverge by exactly the dropped frames.
func TestDeliveredCountersUnderLoss(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newPair(eng)
	b.SetHandler(func(f *Frame) {})
	n := 0
	a.Interceptor = dropIf(func([]byte) bool {
		n++
		return n%2 == 0 // drop every second frame
	})
	const frames, size = 10, 100
	for i := 0; i < frames; i++ {
		if err := a.Send([]SGEntry{{Data: make([]byte, size)}}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if a.TxFrames != frames || a.TxBytes != frames*size {
		t.Errorf("post counters: frames=%d bytes=%d", a.TxFrames, a.TxBytes)
	}
	if a.DeliveredFrames != frames/2 || a.DeliveredBytes != frames/2*size {
		t.Errorf("delivered: frames=%d bytes=%d, want %d/%d",
			a.DeliveredFrames, a.DeliveredBytes, frames/2, frames/2*size)
	}
	if a.DroppedFrames != frames/2 {
		t.Errorf("DroppedFrames = %d, want %d", a.DroppedFrames, frames/2)
	}
	if a.TxFrames != a.DeliveredFrames+a.DroppedFrames {
		t.Errorf("conservation: tx=%d delivered=%d dropped=%d",
			a.TxFrames, a.DeliveredFrames, a.DroppedFrames)
	}
	if b.RxFrames != a.DeliveredFrames {
		t.Errorf("peer RxFrames=%d, sender DeliveredFrames=%d", b.RxFrames, a.DeliveredFrames)
	}
}

// TestDuplicateOccupiesWire pins the satellite-2 fix: a frame copy created
// by the Interceptor serializes on the wire like any other frame, delaying
// traffic behind it by exactly one wire time.
func TestDuplicateOccupiesWire(t *testing.T) {
	const size = 9000
	run := func(dup bool) ([]sim.Time, uint64) {
		eng := sim.NewEngine()
		a, b := newPair(eng)
		var arrivals []sim.Time
		b.SetHandler(func(f *Frame) { arrivals = append(arrivals, eng.Now()) })
		if dup {
			first := true
			a.Interceptor = func(data []byte) []Delivery {
				if first {
					first = false
					return []Delivery{{Data: data}, {Data: data}} // duplicate frame 1
				}
				return []Delivery{{Data: data}}
			}
		}
		a.Send([]SGEntry{{Data: make([]byte, size)}})
		a.Send([]SGEntry{{Data: make([]byte, size)}})
		eng.Run()
		return arrivals, b.RxFrames
	}
	base, baseRx := run(false)
	dupped, dupRx := run(true)
	if len(base) != 2 || baseRx != 2 {
		t.Fatalf("baseline delivered %d frames", len(base))
	}
	if len(dupped) != 3 || dupRx != 3 {
		t.Fatalf("dup run delivered %d frames, want 3 (two originals + one copy)", len(dupped))
	}
	// The original copies of frames 1 and 2 are dupped[0] and dupped[2]
	// (the duplicate queued behind frame 2 on the wire).
	if dupped[0] != base[0] {
		t.Errorf("frame 1 original arrival moved: %v vs %v", dupped[0], base[0])
	}
	if dupped[1] != base[1] {
		t.Errorf("frame 2 arrival moved: %v vs %v", dupped[1], base[1])
	}
	wire := sim.FromNanos(size * 8 / 100.0)
	if got := dupped[2] - dupped[1]; got != wire {
		t.Errorf("duplicate trails frame 2 by %v, want exactly one wire time %v", got, wire)
	}
}
