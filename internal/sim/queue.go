package sim

// Queue is a bounded FIFO of T values served on one Core: the RX ring a
// busy-polling server drains (§6.1). Push parks an element and arms the
// queue's drain on the core unless one is already armed; the core runs the
// drain, which takes elements with Pop and returns the service time they
// cost, and the drain re-arms itself while work remains, so a backlog of
// any length holds exactly one armed drain. A full queue refuses the
// element and counts it in Core.Dropped: the drop of a full descriptor
// ring.
type Queue[T any] struct {
	c     *Core
	depth int
	r     ring[queued[T]]
	drain func() Time
	// run is runDrain, bound once so arming allocates nothing.
	run   func() Time
	armed bool
}

// queued is one waiting element with its arrival time.
type queued[T any] struct {
	v   T
	enq Time
}

// NewQueue returns an empty queue on c that holds at most depth waiting
// elements. drain runs each time the core picks the queue up: it pops one
// or more elements and returns their summed service time.
func NewQueue[T any](c *Core, depth int, drain func() Time) *Queue[T] {
	q := &Queue[T]{c: c, depth: depth, drain: drain}
	q.run = q.runDrain
	return q
}

// Push parks v and arms the drain; on an idle core the drain runs before
// Push returns. It reports false, counting the drop in Core.Dropped, when
// depth elements already wait.
func (q *Queue[T]) Push(v T) bool {
	if q.r.len() >= q.depth {
		q.c.Dropped++
		return false
	}
	q.r.push(queued[T]{v: v, enq: q.c.eng.Now()})
	q.arm()
	return true
}

// Len is the number of waiting elements; one a running drain has popped no
// longer counts.
func (q *Queue[T]) Len() int { return q.r.len() }

// Pop takes the oldest element; only the queue's drain calls it. It records
// the element's wait in the core's QueueWait and MaxQueueWait: arrival to
// drain start, plus ahead, the service the drain has already spent on the
// elements it popped before this one. Every element's wait is counted once,
// whatever the drain's burst.
func (q *Queue[T]) Pop(ahead Time) T {
	e := q.r.pop()
	w := q.c.eng.Now() - e.enq + ahead
	q.c.QueueWait += w
	if w > q.c.MaxQueueWait {
		q.c.MaxQueueWait = w
	}
	return e.v
}

func (q *Queue[T]) arm() {
	if !q.armed {
		q.armed = true
		q.c.Submit(q.run)
	}
}

func (q *Queue[T]) runDrain() Time {
	q.armed = false
	d := q.drain()
	if q.r.len() > 0 {
		q.arm()
	}
	return d
}

// ring is a FIFO over one slice. pop advances a head index instead of
// shifting the slice (a shift is O(backlog) per element) and zeroes the
// spent slot so the array pins nothing. A push that would grow a full
// array first reclaims the served prefix when it is at least half the
// array, so the array grows only while more than half of it waits: it
// stays under four times the deepest backlog, however long the busy
// period, not one slot per element the period served.
type ring[T any] struct {
	s []T
	h int
}

func (r *ring[T]) len() int { return len(r.s) - r.h }

func (r *ring[T]) push(v T) {
	if r.h > 0 && len(r.s) == cap(r.s) && 2*r.h >= len(r.s) {
		n := copy(r.s, r.s[r.h:])
		clear(r.s[n:])
		r.s, r.h = r.s[:n], 0
	}
	r.s = append(r.s, v)
}

func (r *ring[T]) pop() T {
	v := r.s[r.h]
	var zero T
	r.s[r.h] = zero
	r.h++
	if r.h == len(r.s) {
		r.s, r.h = r.s[:0], 0
	}
	return v
}
