package sim

import (
	"math/rand"
	"testing"
)

// TestRingOrderMatchesHeapKey pins the dispatcher's merge order: an event
// scheduled earlier for time t (heap, smaller seq) must fire before an
// event scheduled at time t for time t (ring, larger seq), and ring
// entries fire in scheduling order — exactly the (at, seq) key order the
// heap alone would have produced.
func TestRingOrderMatchesHeapKey(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() {
		// Scheduled at t=10 for t=10: ring entries.
		e.At(10, func() { got = append(got, 3) })
		e.At(10, func() { got = append(got, 4) })
		got = append(got, 1)
	})
	// Scheduled at t=0 for t=10: heap entry with smaller seq — must fire
	// between the first t=10 event and the ring entries it spawned.
	e.At(10, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestRingCancel covers tombstoning: cancelling a ring entry must stop it
// firing, keep Pending consistent, and not disturb later ring entries.
func TestRingCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	var cancelled bool
	e.At(5, func() {
		tm := e.At(5, func() { t.Error("cancelled ring event fired") })
		keep := e.At(5, func() { fired++ })
		if e.Pending() < 2 {
			t.Errorf("Pending() = %d before cancel, want ≥ 2", e.Pending())
		}
		cancelled = tm.Cancel()
		if tm.Pending() {
			t.Error("timer still pending after ring cancel")
		}
		if !keep.Pending() {
			t.Error("uncancelled ring timer lost")
		}
		if tm.Cancel() {
			t.Error("second Cancel returned true")
		}
	})
	e.Run()
	if !cancelled || fired != 1 {
		t.Fatalf("cancelled=%v fired=%d, want true/1", cancelled, fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", e.Pending())
	}
}

// TestRingRunUntilBoundary checks ring entries at exactly the RunUntil
// deadline fire (the deadline is inclusive), including entries created by
// an event executing at the deadline itself.
func TestRingRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(7, func() {
		e.At(7, func() { fired++ })
	})
	e.RunUntil(7)
	if fired != 1 {
		t.Fatalf("ring entry at the deadline fired %d times, want 1", fired)
	}
	// At(Now()) outside a run parks on the ring; the next run must fire it.
	e.At(e.Now(), func() { fired++ })
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("setup-time ring entry: fired %d, want 2", fired)
	}
}

// ringWorkload drives one engine through a seeded randomized mix of
// zero-delay scheduling (the ring path), positive-delay scheduling, and
// cancellations — every event fires more seeded work — and returns the
// fired-ID sequence plus the final clock.
func ringWorkload(e *Engine, seed int64) ([]int, Time) {
	rng := rand.New(rand.NewSource(seed))
	var fired []int
	var timers []Timer
	id := 0
	var step func(depth int)
	step = func(depth int) {
		if depth > 6 {
			return
		}
		n := rng.Intn(4)
		for k := 0; k < n; k++ {
			switch rng.Intn(6) {
			case 0, 1:
				myID := id
				id++
				timers = append(timers, e.At(e.Now(), func() { fired = append(fired, myID); step(depth + 1) }))
			case 2, 3:
				myID := id
				id++
				d := Time(1 + rng.Intn(20))
				timers = append(timers, e.At(e.Now()+d, func() { fired = append(fired, myID); step(depth + 1) }))
			case 4:
				if len(timers) > 0 {
					timers[rng.Intn(len(timers))].Cancel()
				}
			case 5:
				myID := id
				id++
				timers = append(timers, e.After(0, func() { fired = append(fired, myID); step(depth + 1) }))
			}
		}
	}
	for i := 0; i < 40; i++ {
		myID := id
		id++
		at := Time(rng.Intn(50))
		timers = append(timers, e.At(at, func() { fired = append(fired, myID); step(0) }))
	}
	end := e.Run()
	return fired, end
}

// TestRingRandomizedAgainstHeapOnly differences ring dispatch against the
// heap-only engine (noRing) over identically-seeded randomized workloads:
// the fired sequence, final clock, processed count, and pending count must
// match exactly — the ring is a mechanical fast path, not a reordering.
func TestRingRandomizedAgainstHeapOnly(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		ring := NewEngine()
		heapOnly := NewEngine()
		heapOnly.noRing = true
		gotFired, gotEnd := ringWorkload(ring, seed)
		wantFired, wantEnd := ringWorkload(heapOnly, seed)
		if gotEnd != wantEnd {
			t.Fatalf("seed %d: final clock %v, heap-only %v", seed, gotEnd, wantEnd)
		}
		if ring.Processed() != heapOnly.Processed() {
			t.Fatalf("seed %d: processed %d, heap-only %d", seed, ring.Processed(), heapOnly.Processed())
		}
		if len(gotFired) != len(wantFired) {
			t.Fatalf("seed %d: fired %d events, heap-only %d", seed, len(gotFired), len(wantFired))
		}
		for i := range wantFired {
			if gotFired[i] != wantFired[i] {
				t.Fatalf("seed %d: fired[%d] = %d, heap-only %d", seed, i, gotFired[i], wantFired[i])
			}
		}
		if ring.Pending() != heapOnly.Pending() {
			t.Fatalf("seed %d: pending %d, heap-only %d", seed, ring.Pending(), heapOnly.Pending())
		}
	}
}
