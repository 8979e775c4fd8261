// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate clock for the whole repository: the simulated
// NIC, caches, cores, and load generators all advance a single virtual
// timeline measured in picoseconds. Determinism is guaranteed by a strict
// (time, sequence) ordering of events, so two runs with the same seed produce
// identical results.
package sim

import "fmt"

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
	// sifts so that cancellation can remove an event in O(log n). Events
	// parked on the ready ring instead of the heap use the negative
	// sentinels below.
	index int
	// gen is bumped every time the event struct is recycled through the
	// engine's free list, so a Timer holding a stale *event (one that fired
	// or was cancelled, then reused for an unrelated callback) can detect
	// the reuse and refuse to cancel someone else's event.
	gen uint64
}

// index sentinels for events not resident in the heap.
const (
	idxFree          = -1 // recycled or fired; not queued anywhere
	idxRing          = -2 // live on the ready ring
	idxRingCancelled = -3 // cancelled while on the ring; recycled at dequeue
)

// eventLess is the deterministic (at, seq) key ordering from the heap,
// usable on any two events regardless of which structure holds them.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap on the (at, seq) key: the parent of slot i
// is (i-1)/4 and its children are 4i+1 … 4i+4. The wider fan-out halves
// the depth of a binary heap, so a sift touches fewer cache lines. The
// sifts move a hole instead of swapping, so each displaced event's index
// is written once. Every key is unique, so the pop order is the same as
// any other correct priority queue's.
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

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated components run on the engine's goroutine.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	stopped bool
	// processed counts events executed, for diagnostics and runaway guards.
	processed uint64
	// free is a per-engine free list of event structs. The engine is
	// single-goroutine by contract, so a plain slice (no sync.Pool locking)
	// makes steady-state scheduling allocation-free: every fired or
	// cancelled event returns here and the next At reuses it.
	free []*event

	// ready is the deferred-dispatch ring ahead of the heap: events
	// scheduled at exactly Now() — the common After(0)/At(Now()) case, and
	// by construction also the current heap minimum's timestamp whenever
	// the heap holds same-instant work — are appended here in O(1) instead
	// of paying a heap sift. Ring entries all carry at=now with strictly
	// increasing seq, so the ring is always sorted by the (at, seq) key,
	// and the clock cannot advance past them (the dispatcher always fires
	// the key-minimum of ring head vs heap min, and every ring entry's at
	// equals the current clock). Cancellation leaves a tombstone (index =
	// idxRingCancelled) that the dispatcher recycles at dequeue, since ring
	// entries have no heap index to remove by.
	ready     []*event
	readyHead int
	readyLive int
	// noRing forces every event through the heap; test-only, for
	// differencing ring dispatch against the heap-only reference order.
	noRing bool
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
	switch {
	case t.ev.index >= 0:
		t.e.events.remove(t.ev.index)
		t.e.recycle(t.ev)
		return true
	case t.ev.index == idxRing:
		// Ring entries have no heap index; tombstone in place and let the
		// dispatcher recycle the struct when it reaches the ring head.
		t.ev.index = idxRingCancelled
		t.ev.fn = nil
		t.e.readyLive--
		return true
	}
	return false
}

// Pending reports whether the timer's event has not yet fired or been
// cancelled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && (t.ev.index >= 0 || t.ev.index == idxRing)
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
//
// Scheduling at exactly the current time takes the ready-ring fast path:
// the event's key (at=now, fresh seq) is strictly greater than every ring
// entry already queued and orders against heap events purely by the
// (at, seq) key the dispatcher compares, so dispatch order — and therefore
// every report — is identical to the heap-only path.
func (e *Engine) At(at Time, fn func()) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.newEvent(at, e.seq, fn)
	e.seq++
	if at == e.now && !e.noRing {
		ev.index = idxRing
		e.ready = append(e.ready, ev)
		e.readyLive++
	} else {
		e.events.push(ev)
	}
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// ringHead returns the first live ring entry, lazily recycling tombstones,
// or nil when the ring is empty.
func (e *Engine) ringHead() *event {
	for e.readyHead < len(e.ready) {
		ev := e.ready[e.readyHead]
		if ev.index != idxRingCancelled {
			return ev
		}
		e.ready[e.readyHead] = nil
		e.readyHead++
		e.recycle(ev)
	}
	e.ready = e.ready[:0]
	e.readyHead = 0
	return nil
}

// ringAdvance removes the current ring head (which the caller obtained from
// ringHead).
func (e *Engine) ringAdvance() {
	e.ready[e.readyHead] = nil
	e.readyHead++
	e.readyLive--
	if e.readyHead == len(e.ready) {
		e.ready = e.ready[:0]
		e.readyHead = 0
	}
}

// peekNext returns the next event in deterministic key order across the
// ready ring and the heap, without removing it. Nil when none are pending.
func (e *Engine) peekNext() *event {
	rev := e.ringHead()
	if len(e.events) == 0 {
		return rev
	}
	hev := e.events[0]
	if rev == nil || eventLess(hev, rev) {
		return hev
	}
	return rev
}

// popKnown removes ev, which the caller just obtained from peekNext.
func (e *Engine) popKnown(ev *event) {
	if ev.index >= 0 {
		e.events.popMin()
		return
	}
	e.ringAdvance()
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
		ev := e.peekNext()
		if ev == nil {
			break
		}
		e.popKnown(ev)
		e.now = ev.at
		e.processed++
		fn := ev.fn
		// Recycle before firing: fn may schedule new events, and letting it
		// reuse this struct immediately keeps the free list at its
		// steady-state size.
		e.recycle(ev)
		fn()
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
		ev := e.peekNext()
		if ev == nil || ev.at > deadline {
			break
		}
		e.popKnown(ev)
		e.now = ev.at
		e.processed++
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	e.stopped = false
	return e.now
}

// Pending returns the number of queued events (ring and heap; cancelled
// ring tombstones are excluded).
func (e *Engine) Pending() int { return len(e.events) + e.readyLive }
