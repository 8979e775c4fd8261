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
	t      *testing.T
	e      *Engine
	rng    *Rand
	ref    refQueue
	seq    uint64 // mirrors the engine's scheduling counter
	now    Time   // the clock the reference expects
	fired  int
	nested int // events scheduled from callbacks, capped so Run drains
	peak   int
	timers []Timer
	keys   []refKey
	// cancels counts the cancels that hit, per tier and position: a
	// calendar bucket's head, middle and tail, then the heap's root, a
	// mid-heap slot and its last slot.
	cancels [6]int
	ties    int // calendar events scheduled at a heap event's instant
}

func (r *heapRefRun) schedule(at Time) {
	k := refKey{at: at, seq: r.seq}
	r.seq++
	tm := r.e.At(at, func() { r.fire(k) })
	if tm.ev.seq != k.seq {
		r.t.Fatalf("engine seq %d, reference seq %d", tm.ev.seq, k.seq)
	}
	if h := r.e.heap; tm.ev.index == idxCal && len(h) > 0 && h[0].at == at {
		r.ties++
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

// delay draws from a coarse grid so many keys tie on at and order by seq,
// beside the two tiers' edge cases: the timers that go to the heap, the
// calendar's last bucket and the horizon itself, and the heap root's
// instant, which lands in the calendar once the root is near.
func (r *heapRefRun) delay() Time {
	now := r.e.Now()
	switch r.rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return Time(200+r.rng.Intn(50)) * Nanosecond
	case 2:
		return r.timer()
	case 3:
		horizon := (now>>calShift + calBuckets) << calShift
		edge := [3]Time{horizon - 1<<calShift, horizon - 1, horizon}
		return edge[r.rng.Intn(3)] - now
	case 4:
		if h := r.e.heap; len(h) > 0 {
			return h[0].at - now
		}
		return 0
	default:
		return Time(r.rng.Intn(40)) * Nanosecond
	}
}

// timer draws a fan-in or deadline timer: 250 µs or 800 µs, a few
// nanoseconds apart so that they tie too.
func (r *heapRefRun) timer() Time {
	d := 250 * Microsecond
	if r.rng.Intn(2) == 0 {
		d = 800 * Microsecond
	}
	return d + Time(r.rng.Intn(4))*Nanosecond
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

// cancelEvent cancels ev, counting a hit under kind.
func (r *heapRefRun) cancelEvent(ev *event, kind int) {
	if r.cancel(Timer{e: r.e, ev: ev, gen: ev.gen}, refKey{at: ev.at, seq: ev.seq}) {
		r.cancels[kind]++
	}
}

// cancelBucket cancels the head, a middle event or the tail of a random
// non-empty calendar bucket's list.
func (r *heapRefRun) cancelBucket() {
	var full []*event
	for _, h := range r.e.cal.head {
		if h != nil {
			full = append(full, h)
		}
	}
	var list []*event
	for ev := full[r.rng.Intn(len(full))]; ev != nil; ev = ev.next {
		list = append(list, ev)
	}
	switch n := len(list); {
	case n >= 3 && r.rng.Intn(2) == 0:
		r.cancelEvent(list[1+r.rng.Intn(n-2)], 1)
	case n >= 2 && r.rng.Intn(2) == 0:
		r.cancelEvent(list[n-1], 2)
	default:
		r.cancelEvent(list[0], 0)
	}
}

// cancelHeap cancels the event at the heap's root, a mid-heap slot or its
// last slot.
func (r *heapRefRun) cancelHeap() {
	h := r.e.heap
	switch n := len(h); {
	case n >= 3 && r.rng.Intn(2) == 0:
		r.cancelEvent(h[1+r.rng.Intn(n-2)], 4)
	case n >= 2 && r.rng.Intn(2) == 0:
		r.cancelEvent(h[n-1], 5)
	default:
		r.cancelEvent(h[0], 3)
	}
}

// deadline draws a RunUntil deadline: mostly a few nanoseconds on, and
// otherwise a jump across empty buckets, past a whole horizon, or to just
// before the heap's root, which brings the root within the horizon.
func (r *heapRefRun) deadline() Time {
	now := r.e.Now()
	switch r.rng.Intn(10) {
	case 0:
		return now + Time(2+r.rng.Intn(60))<<calShift
	case 1:
		return now + Time(calBuckets+r.rng.Intn(calBuckets))<<calShift
	case 2:
		if h := r.e.heap; len(h) > 0 {
			return h[0].at - 1
		}
	}
	return now + Time(r.rng.Intn(30))*Nanosecond
}

func (r *heapRefRun) checkPending(when string) {
	if got, want := r.e.Pending(), len(r.ref); got != want {
		r.t.Fatalf("%s: Pending() = %d, reference %d", when, got, want)
	}
}

// TestHeapMatchesSortedReference differences the engine's two-tier event
// queue against a sorted-slice reference over randomized At/After/Cancel
// workloads with same-instant ties, scheduling from callbacks, timers
// that go to the heap, keys at the calendar's horizon, ties between the
// tiers, RunUntil jumps across empty buckets and past a whole horizon,
// and cancels at a calendar bucket's head, middle and tail and at the
// heap's root, mid-heap and last slot: the fired order, Pending() and the
// final clock must match exactly.
func TestHeapMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		e := NewEngine()
		r := &heapRefRun{t: t, e: e, rng: NewRand(seed)}
		// Fill well past 1,000 pending events, a fifth of them timers,
		// then interleave bursts of outside scheduling and cancels with
		// partial runs.
		for i := 0; i < 1200; i++ {
			r.schedule(e.Now() + Time(r.rng.Intn(400))*Nanosecond)
			if i%4 == 0 {
				r.schedule(e.Now() + r.timer())
			}
		}
		for round := 0; round < 60; round++ {
			for n := r.rng.Intn(40); n > 0; n-- {
				switch {
				case r.rng.Intn(3) == 0:
					r.schedule(e.Now() + r.delay())
				case e.cal.n > 0 && r.rng.Intn(2) == 0:
					r.cancelBucket()
				case len(e.heap) > 0:
					r.cancelHeap()
				default:
					r.cancelRandom()
				}
			}
			r.checkPending("before run")
			deadline := r.deadline()
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
		if c := r.cancels; c[0] == 0 || c[1] == 0 || c[2] == 0 {
			t.Fatalf("seed %d: calendar head/middle/tail cancels %v, want each > 0", seed, c[:3])
		}
		if c := r.cancels; c[3] == 0 || c[4] == 0 || c[5] == 0 {
			t.Fatalf("seed %d: heap root/mid/last cancels %v, want each > 0", seed, c[3:])
		}
		if r.ties == 0 {
			t.Fatalf("seed %d: no calendar event tied a heap event's instant", seed)
		}
		if r.fired == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}
