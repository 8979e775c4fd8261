package sim

import (
	"sort"
	"testing"
)

// refKey is one live event's (at, seq) key in the sorted reference queue.
type refKey struct {
	at  Time
	seq uint64
}

func (k refKey) less(o refKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// refQueue keeps the live keys in a sorted slice: the obviously correct
// priority queue the engine's heap is differenced against.
type refQueue []refKey

func (q *refQueue) find(k refKey) int {
	return sort.Search(len(*q), func(i int) bool { return !(*q)[i].less(k) })
}

func (q *refQueue) insert(k refKey) {
	i := q.find(k)
	*q = append(*q, refKey{})
	copy((*q)[i+1:], (*q)[i:])
	(*q)[i] = k
}

// remove deletes k and reports whether it was live.
func (q *refQueue) remove(k refKey) bool {
	i := q.find(k)
	if i == len(*q) || (*q)[i] != k {
		return false
	}
	*q = append((*q)[:i], (*q)[i+1:]...)
	return true
}

// heapRefRun drives one randomized schedule through e and the reference
// side by side. Every callback checks that it is the reference minimum;
// every cancel checks that the engine and the reference agree on whether
// the event was live.
type heapRefRun struct {
	t       *testing.T
	e       *Engine
	rng     *Rand
	ref     refQueue
	seq     uint64 // mirrors the engine's scheduling counter
	now     Time   // the clock the reference expects
	fired   int
	nested  int // events scheduled from callbacks, capped so Run drains
	peak    int
	timers  []Timer
	keys    []refKey
	cancels [3]int // root, mid-heap, last-slot cancels that hit
}

func (r *heapRefRun) schedule(at Time) {
	k := refKey{at: at, seq: r.seq}
	r.seq++
	tm := r.e.At(at, func() { r.fire(k) })
	if tm.ev.seq != k.seq {
		r.t.Fatalf("engine seq %d, reference seq %d", tm.ev.seq, k.seq)
	}
	r.ref.insert(k)
	r.timers = append(r.timers, tm)
	r.keys = append(r.keys, k)
	r.peak = max(r.peak, r.e.Pending())
}

func (r *heapRefRun) fire(k refKey) {
	if len(r.ref) == 0 {
		r.t.Fatalf("fired %+v with the reference empty", k)
	}
	if want := r.ref[0]; k != want || r.e.Now() != k.at {
		r.t.Fatalf("fired %+v at %v, reference minimum %+v", k, r.e.Now(), want)
	}
	r.ref = r.ref[1:]
	r.now = k.at
	r.fired++
	// Nested scheduling: same-instant ties and short and long delays.
	for n := r.rng.Intn(3); n > 0 && r.nested < 4000; n-- {
		r.nested++
		r.schedule(r.e.Now() + r.delay())
	}
	if r.rng.Intn(4) == 0 {
		r.cancelRandom()
	}
}

// delay draws from a coarse grid so many keys tie on at and order by seq.
func (r *heapRefRun) delay() Time {
	switch r.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return Time(200+r.rng.Intn(50)) * Nanosecond
	default:
		return Time(r.rng.Intn(40)) * Nanosecond
	}
}

// cancel cancels tm (whose key is k) and checks both queues agree.
func (r *heapRefRun) cancel(tm Timer, k refKey) bool {
	got := tm.Cancel()
	if want := r.ref.remove(k); got != want {
		r.t.Fatalf("Cancel(%+v) = %v, reference %v", k, got, want)
	}
	return got
}

// cancelRandom cancels any timer ever issued: live, fired or cancelled.
func (r *heapRefRun) cancelRandom() {
	if len(r.timers) == 0 {
		return
	}
	i := r.rng.Intn(len(r.timers))
	r.cancel(r.timers[i], r.keys[i])
}

// cancelSlot cancels the event at heap slot i: the root, a mid-heap entry
// or the last slot.
func (r *heapRefRun) cancelSlot(i, kind int) {
	ev := r.e.events[i]
	if r.cancel(Timer{e: r.e, ev: ev, gen: ev.gen}, refKey{at: ev.at, seq: ev.seq}) {
		r.cancels[kind]++
	}
}

func (r *heapRefRun) checkPending(when string) {
	if got, want := r.e.Pending(), len(r.ref); got != want {
		r.t.Fatalf("%s: Pending() = %d, reference %d", when, got, want)
	}
}

// TestHeapMatchesSortedReference differences the engine's event queue
// against a sorted-slice reference over randomized At/After/Cancel
// workloads with same-instant ties, scheduling from callbacks, and
// cancels at the heap root, mid-heap and the last slot: the fired order,
// Pending() and the final clock must match exactly.
func TestHeapMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		e := NewEngine()
		r := &heapRefRun{t: t, e: e, rng: NewRand(seed)}
		// Fill well past 1,000 pending events, then interleave bursts
		// of outside scheduling and cancels with partial runs.
		for i := 0; i < 1200; i++ {
			r.schedule(e.Now() + Time(r.rng.Intn(400))*Nanosecond)
		}
		for round := 0; round < 60; round++ {
			for n := r.rng.Intn(40); n > 0; n-- {
				switch h := len(e.events); {
				case r.rng.Intn(3) == 0:
					r.schedule(e.Now() + r.delay())
				case h > 0 && r.rng.Intn(4) == 0:
					r.cancelSlot(0, 0)
				case h > 0 && r.rng.Intn(3) == 0:
					r.cancelSlot(h-1, 2)
				case h > 0:
					r.cancelSlot(r.rng.Intn(h), 1)
				default:
					r.cancelRandom()
				}
			}
			r.checkPending("before run")
			deadline := e.Now() + Time(r.rng.Intn(30))*Nanosecond
			e.RunUntil(deadline)
			r.now = max(r.now, deadline)
			r.checkPending("after RunUntil")
		}
		end := e.Run()
		if len(r.ref) != 0 {
			t.Fatalf("seed %d: engine drained with %d reference keys live", seed, len(r.ref))
		}
		r.checkPending("after Run")
		if end != r.now || e.Now() != r.now {
			t.Fatalf("seed %d: final clock %v, reference %v", seed, end, r.now)
		}
		if r.peak < 1000 {
			t.Fatalf("seed %d: peak pending %d, want ≥ 1000", seed, r.peak)
		}
		if r.cancels[0] == 0 || r.cancels[1] == 0 || r.cancels[2] == 0 {
			t.Fatalf("seed %d: root/mid/last cancels %v, want each > 0", seed, r.cancels)
		}
		if r.fired == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}
