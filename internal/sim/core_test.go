package sim

import "testing"

// Regression: Utilization sampled mid-job must count only the portion of the
// job already served. The pre-fix accounting credited the whole service time
// at dispatch, so a core 10 ns into a 1 µs job at t=20 ns reported
// utilization 50 — not a fraction at all.
func TestUtilizationNeverOvershoots(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	e.At(10, func() {
		c.Submit(func() Time { return 1000 })
	})
	samples := []Time{5, 20, 500, 1010, 2000}
	for _, at := range samples {
		at := at
		e.At(at, func() {
			u := c.Utilization()
			if u < 0 || u > 1 {
				t.Errorf("Utilization() at t=%v = %v, want within [0,1]", at, u)
			}
		})
	}
	e.Run()
	// After the run: busy 10→1010 out of 2000 observed ns.
	if got := c.BusyTime; got != 1000 {
		t.Errorf("BusyTime = %v, want 1000", got)
	}
}

// Utilization is monotone non-decreasing while the core stays busy, and
// exact at every sampled instant.
func TestUtilizationExactMidJob(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	c.Submit(func() Time { return 100 })
	e.At(50, func() {
		if u := c.Utilization(); u != 1.0 {
			t.Errorf("Utilization() halfway through the only job = %v, want 1.0", u)
		}
	})
	e.At(200, func() {
		if u := c.Utilization(); u != 0.5 {
			t.Errorf("Utilization() at t=200 after 100 busy = %v, want 0.5", u)
		}
	})
	e.Run()
}

// Pop records each element's wait (arrival to drain start) in
// QueueWait/MaxQueueWait, making queue wait a per-element observable.
func TestQueueWaitObservable(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	var waits []Time // per-element waits in service order
	var q *Queue[int]
	q = NewQueue[int](c, 8, func() Time {
		before := c.QueueWait
		q.Pop(0)
		waits = append(waits, c.QueueWait-before)
		return 100
	})
	e.At(0, func() { q.Push(0) })  // served at 0, wait 0
	e.At(10, func() { q.Push(1) }) // served at 100, wait 90
	e.At(20, func() { q.Push(2) }) // served at 200, wait 180
	e.Run()
	want := []Time{0, 90, 180}
	if len(waits) != len(want) {
		t.Fatalf("served %d elements, want %d", len(waits), len(want))
	}
	for i, w := range waits {
		if w != want[i] {
			t.Errorf("element %d waited %v, want %v", i, w, want[i])
		}
	}
	if c.QueueWait != 0+90+180 {
		t.Errorf("QueueWait = %v, want 270", c.QueueWait)
	}
	if c.MaxQueueWait != 180 {
		t.Errorf("MaxQueueWait = %v, want 180", c.MaxQueueWait)
	}
}

// A drain that serves a burst records each member's wait once: its time
// in the queue plus the service of the members ahead of it. The drain
// itself, and work submitted to the core directly, record no wait.
func TestQueueBurstWaitAccounting(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	// Work submitted directly occupies the core so the queue's drain waits.
	e.At(0, func() { c.Submit(func() Time { return 100 }) })
	var q *Queue[int]
	q = NewQueue[int](c, 8, func() Time {
		// Drain starts at t=100 and serves both members, 50 each.
		q.Pop(0)  // first member waited 100 − 10 = 90
		q.Pop(50) // second waited that plus the first's service: 140
		return 100
	})
	e.At(10, func() {
		q.Push(1)
		q.Push(2)
	})
	e.Run()
	if c.QueueWait != 90+140 {
		t.Errorf("QueueWait = %v, want 230 (the two members only)", c.QueueWait)
	}
	if c.MaxQueueWait != 140 {
		t.Errorf("MaxQueueWait = %v, want 140", c.MaxQueueWait)
	}
	if c.JobsDone != 2 {
		t.Errorf("JobsDone = %v, want 2", c.JobsDone)
	}
}

// Every queue on a core counts its overflow in the core's one Dropped
// counter: an RX ring and a second queue sharing the core each refuse an
// element, and both drops land there.
func TestNoteDrop(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	var rx, other *Queue[int]
	rx = NewQueue[int](c, 1, func() Time { rx.Pop(0); return 100 })
	other = NewQueue[int](c, 1, func() Time { other.Pop(0); return 100 })
	rx.Push(0) // in service
	rx.Push(1) // waiting
	if rx.Push(2) {
		t.Fatal("queue bound not enforced")
	}
	other.Push(0) // waiting behind the busy core
	if other.Push(1) {
		t.Fatal("second queue's bound not enforced")
	}
	if c.Dropped != 2 {
		t.Errorf("Dropped = %v, want 2 (one refusal from each queue)", c.Dropped)
	}
	e.Run()
	if c.JobsDone != 3 {
		t.Errorf("JobsDone = %v, want 3", c.JobsDone)
	}
}

// A queue with a backlog holds exactly one armed drain on its core,
// however deep the backlog, and the drain re-arms until the backlog is
// served.
func TestQueueArmsOneDrain(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	c.Submit(func() Time { return 1000 }) // holds the core
	var q *Queue[int]
	served := 0
	q = NewQueue[int](c, 16, func() Time {
		q.Pop(0)
		served++
		return 10
	})
	const n = 5
	for i := 0; i < n; i++ {
		q.Push(i)
		if got := c.runs.len(); got != 1 {
			t.Fatalf("backlog %d: %d drains armed on the core, want 1", q.Len(), got)
		}
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	e.Run()
	if served != n || q.Len() != 0 || c.runs.len() != 0 {
		t.Fatalf("after the run: served %d, Len %d, armed %d; want %d, 0, 0", served, q.Len(), c.runs.len(), n)
	}
	if c.JobsDone != 1+n {
		t.Errorf("JobsDone = %d, want %d (the held job and one drain per element)", c.JobsDone, 1+n)
	}
}

// TestBusyPeriodArraysStayBounded: one busy period serves 100,000
// elements with at most 8 ever waiting. Neither the core's FIFO nor a
// queue's ring may keep a slot for every element the period served; the
// core's FIFO once reclaimed its array only when it emptied.
func TestBusyPeriodArraysStayBounded(t *testing.T) {
	const total, waiting, limit = 100_000, 8, 64
	t.Run("Core.Submit", func(t *testing.T) {
		e := NewEngine()
		c := NewCore(e)
		submitted := 0
		var run func() Time
		run = func() Time {
			if submitted < total {
				submitted++
				c.Submit(run) // replace the job just taken
			}
			return Nanosecond
		}
		for submitted < waiting {
			submitted++
			c.Submit(run)
		}
		e.Run()
		if c.JobsDone != total || c.BusyTime != total*Nanosecond {
			t.Fatalf("served %d in %v busy, want %d in one %v busy period", c.JobsDone, c.BusyTime, total, total*Nanosecond)
		}
		if got := cap(c.runs.s); got > limit {
			t.Errorf("core FIFO array reached %d entries, want at most %d", got, limit)
		}
	})
	t.Run("Queue", func(t *testing.T) {
		e := NewEngine()
		c := NewCore(e)
		pushed := 0
		var q *Queue[int]
		q = NewQueue[int](c, waiting, func() Time {
			q.Pop(0)
			if pushed < total {
				pushed++
				q.Push(pushed)
			}
			return Nanosecond
		})
		for pushed < waiting {
			pushed++
			q.Push(pushed)
		}
		e.Run()
		if c.JobsDone != total || c.Dropped != 0 || c.BusyTime != total*Nanosecond {
			t.Fatalf("served %d (%d dropped) in %v busy, want %d in one %v busy period",
				c.JobsDone, c.Dropped, c.BusyTime, total, total*Nanosecond)
		}
		if got := cap(q.r.s); got > limit {
			t.Errorf("queue ring array reached %d entries, want at most %d", got, limit)
		}
		if got := cap(c.runs.s); got > limit {
			t.Errorf("core FIFO array reached %d entries, want at most %d", got, limit)
		}
	})
}
