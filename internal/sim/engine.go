// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate clock for the whole repository: the simulated
// NIC, caches, cores, and load generators all advance a single virtual
// timeline measured in picoseconds. Determinism is guaranteed by a strict
// (time, sequence) ordering of events, so two runs with the same seed produce
// identical results.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a point on (or a span of) the virtual timeline, in picoseconds.
// Picosecond resolution lets CPU-cycle costs (≈357 ps at 2.8 GHz) round-trip
// through the clock without accumulating error over billions of events.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromNanos converts a nanosecond count to a Time.
func FromNanos(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// FromMicros converts a microsecond count to a Time.
func FromMicros(us float64) Time { return Time(us * float64(Microsecond)) }

// FromSeconds converts a second count to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// event is a scheduled callback. Ties between events at the same instant
// break by seq, the engine's scheduling counter, so the earlier-scheduled
// event fires first.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// index is the event's slot in the heap, kept current by the heap's
	// sifts so that cancellation can remove an event in O(log n); idxCal
	// while the event sits in the calendar, or idxFree once it has fired
	// or been cancelled.
	index int
	// gen is bumped every time the event struct is recycled through the
	// engine's free list, so a Timer holding a stale *event (one that fired
	// or was cancelled, then reused for an unrelated callback) can detect
	// the reuse and refuse to cancel someone else's event.
	gen uint64
	// next and prev thread a calendar bucket's list in key order: next
	// points at the following event (nil at the tail), prev at the one
	// before, and the head's prev at the tail.
	next, prev *event
}

// idxFree marks an event that is queued nowhere: recycled, fired or
// cancelled. idxCal marks one in the calendar.
const (
	idxFree = -1
	idxCal  = -2
)

// eventLess is the deterministic (at, seq) key ordering of the heap.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap, the engine's far tier, is a 4-ary min-heap on the (at, seq)
// key: the parent of slot i is (i-1)/4 and its children are 4i+1 … 4i+4.
// The wider fan-out halves the depth of a binary heap, so a sift touches
// fewer cache lines. The sifts move a hole instead of swapping, so each
// displaced event's index is written once. Every key is unique, so the
// pop order is the same as any other correct priority queue's.
type eventHeap []*event

// push inserts ev.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// popMin removes the minimum event.
func (h *eventHeap) popMin() {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0, last)
	}
}

// remove deletes the event at slot i. The last event fills the hole: it
// sifts up when it beats the hole's parent, and down otherwise.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i == n {
		return
	}
	if i > 0 && eventLess(last, old[(i-1)/4]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up settles ev into the hole at slot i, moving later ancestors down.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 {
		p := (i - 1) / 4
		pe := h[p]
		if !eventLess(ev, pe) {
			break
		}
		h[i] = pe
		pe.index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down settles ev into the hole at slot i, moving the earliest child up
// while it precedes ev.
func (h eventHeap) down(i int, ev *event) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, me := c, h[c]
		for j := c + 1; j < c+4 && j < n; j++ {
			if eventLess(h[j], me) {
				m, me = j, h[j]
			}
		}
		if !eventLess(me, ev) {
			break
		}
		h[i] = me
		me.index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}

// The calendar's constants come from the bench workloads' event stream:
// 85.7–94.4% of pushes are link, DMA, switch and core events due under
// 16.8 µs ahead, and nearly all the rest are 250–800 µs fan-in and
// deadline timers, cancelled before they fall due. 1,024 buckets (a
// 16-word bitmap) of 2^16 ps (65.5 ns) reach 67.1 µs: four times the
// longest near delay and under a third of the shortest timer, so the
// timers alone go to the heap. A bucket then holds one or two of
// rpc-fanout's events and about seven of rack-ycsb's, the densest stream
// at one event per 10 ns.
const (
	calShift   = 16
	calBuckets = 1 << 10
	calWords   = calBuckets / 64
)

// calendar is the engine's near tier (Brown, CACM 31(10), 1988): it holds
// every event whose bucket, at >> calShift, lies fewer than calBuckets
// buckets after now's, in slot (at >> calShift) mod calBuckets. A bucket
// is a list threaded through the events themselves, kept in key order, so
// scheduling into the calendar allocates nothing; a bitmap marks the
// non-empty buckets. Nothing is due before now and every calendar event
// lies within one horizon of it, so each slot holds one bucket's events
// and the first non-empty slot at or after now's holds the earliest.
type calendar struct {
	head [calBuckets]*event
	full [calWords]uint64 // bit b%64 of word b/64 is set while bucket b is non-empty
	n    int
}

// near reports whether an event due at (never before now) belongs in the
// calendar.
func near(at, now Time) bool {
	return at>>calShift-now>>calShift < calBuckets
}

// insert files ev into its bucket after every event it does not precede.
func (c *calendar) insert(ev *event) {
	b := int(ev.at>>calShift) & (calBuckets - 1)
	ev.index = idxCal
	c.n++
	h := c.head[b]
	if h == nil {
		ev.next, ev.prev = nil, ev
		c.head[b] = ev
		c.full[b>>6] |= 1 << (b & 63)
		return
	}
	// Walk back from the tail. ev has the largest seq, so it usually
	// follows the tail and the walk is one comparison.
	p := h.prev
	for eventLess(ev, p) {
		if p == h {
			ev.next, ev.prev = h, h.prev
			h.prev = ev
			c.head[b] = ev
			return
		}
		p = p.prev
	}
	ev.next, ev.prev = p.next, p
	if p.next == nil {
		h.prev = ev
	} else {
		p.next.prev = ev
	}
	p.next = ev
}

// remove unlinks ev from its bucket.
func (c *calendar) remove(ev *event) {
	b := int(ev.at>>calShift) & (calBuckets - 1)
	c.n--
	switch h := c.head[b]; {
	case ev == h && ev.next == nil:
		c.head[b] = nil
		c.full[b>>6] &^= 1 << (b & 63)
	case ev == h:
		ev.next.prev = ev.prev
		c.head[b] = ev.next
	case ev.next == nil:
		ev.prev.next = nil
		h.prev = ev.prev
	default:
		ev.prev.next = ev.next
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
}

// first returns the calendar's earliest event, the head of the first
// non-empty bucket at or after now's. The calendar must not be empty.
func (c *calendar) first(now Time) *event {
	b := int(now>>calShift) & (calBuckets - 1)
	w := b >> 6
	word := c.full[w] >> (b & 63) << (b & 63)
	for word == 0 {
		w = (w + 1) % calWords
		word = c.full[w]
	}
	return c.head[w<<6|bits.TrailingZeros64(word)]
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated components run on the engine's goroutine.
type Engine struct {
	now Time
	// The queue has two tiers: cal holds the events due within its
	// horizon, heap the rest. Every key is unique, so taking the earlier
	// of the two minima pops events in exactly the (at, seq) order one
	// queue would.
	cal     calendar
	heap    eventHeap
	seq     uint64
	stopped bool
	// processed counts events executed, for diagnostics and runaway guards.
	processed uint64
	// free is a per-engine free list of event structs. The engine is
	// single-goroutine by contract, so a plain slice (no sync.Pool locking)
	// makes steady-state scheduling allocation-free: every fired or
	// cancelled event returns here and the next At reuses it.
	free []*event
}

// Runner is the engine surface the harness drives a run through. Testbeds
// expose it as their Exec handle, so callers that only run the clock need
// not know which testbed built the engine.
type Runner interface {
	Now() Time
	Run() Time
	RunUntil(deadline Time) Time
	Stop()
	Pending() int
	Processed() uint64
}

var _ Runner = (*Engine)(nil)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Timer identifies a scheduled event so it can be cancelled. The zero Timer
// is invalid. The gen snapshot ties the Timer to one particular use of the
// (recycled) event struct.
type Timer struct {
	e   *Engine
	ev  *event
	gen uint64
}

// Cancel removes the pending event. It reports whether the event was still
// pending (false when it already fired or was cancelled before).
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	switch t.ev.index {
	case idxFree:
		return false
	case idxCal:
		t.e.cal.remove(t.ev)
	default:
		t.e.heap.remove(t.ev.index)
	}
	t.e.recycle(t.ev)
	return true
}

// Pending reports whether the timer's event has not yet fired or been
// cancelled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.index != idxFree
}

// recycle returns a fired or cancelled event to the free list. Bumping gen
// invalidates every Timer that still points at the struct; dropping fn
// releases the closure (and whatever it captures) immediately instead of
// pinning it until the struct is reused.
func (e *Engine) recycle(ev *event) {
	ev.index = idxFree
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// it always indicates a modelling bug, and silently reordering time would
// corrupt every downstream measurement.
func (e *Engine) At(at Time, fn func()) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.newEvent(at, e.seq, fn)
	e.seq++
	if near(at, e.now) {
		e.cal.insert(ev)
	} else {
		e.heap.push(ev)
	}
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// newEvent takes an event struct off the free list (or allocates one) and
// fills in the sort key.
func (e *Engine) newEvent(at Time, seq uint64, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = at, seq, fn
	} else {
		ev = &event{at: at, seq: seq, fn: fn}
	}
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
// Pending events stay queued and a later Run call resumes them. A Stop
// issued while the engine is not running is sticky: the next Run or
// RunUntil observes it and returns before executing anything. Each run
// consumes at most one stop — the flag clears when a run returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until no events remain or Stop is
// called. It returns the time of the last executed event.
func (e *Engine) Run() Time {
	for !e.stopped {
		ev := e.peek()
		if ev == nil {
			break
		}
		e.fire(ev)
	}
	e.stopped = false
	return e.now
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain
// queued. A Stop — pending from before the call, or fired mid-run — leaves
// the clock at the last executed event rather than jumping it to the
// deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		e.fire(ev)
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	e.stopped = false
	return e.now
}

// peek returns the next event in (at, seq) order, the earlier of the
// calendar's first and the heap's root, or nil when none is queued.
func (e *Engine) peek() *event {
	var ev *event
	if e.cal.n > 0 {
		ev = e.cal.first(e.now)
	}
	if len(e.heap) > 0 && (ev == nil || eventLess(e.heap[0], ev)) {
		ev = e.heap[0]
	}
	return ev
}

// fire dequeues ev, the event peek returned, advances the clock to it and
// runs it.
func (e *Engine) fire(ev *event) {
	if ev.index == idxCal {
		e.cal.remove(ev)
	} else {
		e.heap.popMin()
	}
	e.now = ev.at
	e.processed++
	fn := ev.fn
	// Recycle before firing: fn may schedule new events, and letting it
	// reuse this struct immediately keeps the free list at its
	// steady-state size.
	e.recycle(ev)
	fn()
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.cal.n + len(e.heap) }
