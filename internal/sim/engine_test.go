package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromNanos(1).Nanoseconds(); got != 1 {
		t.Errorf("FromNanos(1).Nanoseconds() = %v, want 1", got)
	}
	if got := FromMicros(2.5); got != 2500*Nanosecond {
		t.Errorf("FromMicros(2.5) = %v, want 2500ns", got)
	}
	if got := FromSeconds(1); got != Second {
		t.Errorf("FromSeconds(1) = %v, want %v", got, Second)
	}
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Error("unit ladder broken")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{3 * Microsecond, "3.000us"},
		{2 * Millisecond, "2.000ms"},
		{Second, "1.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("Run returned %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v", order)
	}
}

func TestEngineTieBreakBySubmission(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of submission order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.At(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("nested schedule hits = %v, want [10 15]", hits)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	now := e.RunUntil(25)
	if now != 25 {
		t.Errorf("RunUntil returned %v, want 25", now)
	}
	if len(fired) != 2 {
		t.Errorf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("after resume fired %v, want all 4", fired)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(10, func() { count++; e.Stop() })
	e.At(20, func() { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (stopped after first event)", count)
	}
	e.Run()
	if count != 2 {
		t.Errorf("count = %d after resume, want 2", count)
	}
}

// TestStopStickyBetweenRuns is the regression test for the lost-Stop bug:
// Run/RunUntil used to reset the stopped flag on entry, so a Stop issued
// while the engine was idle (harness teardown, a fault plan arming between
// windows) was silently dropped and the next run executed everything.
func TestStopStickyBetweenRuns(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(10, func() { count++ })

	e.Stop() // engine not running: must stick until the next run observes it
	e.Run()
	if count != 0 {
		t.Fatalf("pre-run Stop was lost: %d events executed", count)
	}
	// The observed stop is consumed; the run after it proceeds normally.
	e.Run()
	if count != 1 {
		t.Fatalf("stop was not consumed: resumed run executed %d events, want 1", count)
	}
}

// TestStopStickyBeforeRunUntil is the RunUntil half of the regression: the
// pending stop must both suppress execution and keep the clock from
// jumping to the deadline.
func TestStopStickyBeforeRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(10, func() { count++ })
	e.Stop()
	if now := e.RunUntil(100); now != 0 || count != 0 {
		t.Fatalf("pre-run Stop lost by RunUntil: now=%v count=%d, want 0 and 0", now, count)
	}
	if now := e.RunUntil(100); now != 100 || count != 1 {
		t.Fatalf("resume after Stop: now=%v count=%d, want 100 and 1", now, count)
	}
}

// TestRunUntilDeadlineInclusive pins the boundary: an event scheduled
// exactly at the deadline executes in this run, not the next.
func TestRunUntilDeadlineInclusive(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(25, func() { fired = append(fired, Time(25)) })
	e.At(26, func() { fired = append(fired, Time(26)) })
	if now := e.RunUntil(25); now != 25 {
		t.Errorf("RunUntil returned %v, want 25", now)
	}
	if len(fired) != 1 || fired[0] != 25 {
		t.Errorf("fired %v, want exactly the deadline event", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want the post-deadline event", e.Pending())
	}
}

// TestRunUntilStopMidRunKeepsClock: a Stop fired by an event inside a
// RunUntil window must leave the clock at that event, not jump it to the
// deadline — the stopper's view of "now" is the whole point of stopping.
func TestRunUntilStopMidRunKeepsClock(t *testing.T) {
	e := NewEngine()
	e.At(10, func() { e.Stop() })
	e.At(20, func() {})
	if now := e.RunUntil(100); now != 10 {
		t.Errorf("RunUntil returned %v after mid-run Stop, want 10", now)
	}
	if e.Now() != 10 {
		t.Errorf("clock %v, want pinned at the stopping event", e.Now())
	}
	if now := e.RunUntil(100); now != 100 || e.Pending() != 0 {
		t.Errorf("resume: now=%v pending=%d, want 100 and 0", now, e.Pending())
	}
}

// TestRunUntilPastDeadline: a deadline at or before Now executes nothing
// and never moves the clock backwards.
func TestRunUntilPastDeadline(t *testing.T) {
	e := NewEngine()
	e.At(50, func() {})
	e.Run()
	if e.Now() != 50 {
		t.Fatalf("setup: clock %v, want 50", e.Now())
	}
	count := 0
	e.At(60, func() { count++ })
	if now := e.RunUntil(40); now != 50 || count != 0 {
		t.Errorf("RunUntil(40) from 50: now=%v count=%d, want clock held at 50 and nothing run", now, count)
	}
}

// TestSameInstantOrderAcrossSchedulingPoints pins the (at, seq) key
// order for same-instant work: an event scheduled earlier for time t
// (smaller seq) fires before events an event at t schedules for t, and
// those fire in scheduling order.
func TestSameInstantOrderAcrossSchedulingPoints(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() {
		// Scheduled at t=10 for t=10.
		e.At(10, func() { got = append(got, 3) })
		e.At(10, func() { got = append(got, 4) })
		got = append(got, 1)
	})
	// Scheduled at t=0 for t=10 with a smaller seq: fires between the
	// first t=10 event and the events it spawned.
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

// TestCancelAtCurrentInstant cancels an event scheduled for the current
// instant from a callback: it must not fire, Pending must stay
// consistent, and a later same-instant event must be undisturbed.
func TestCancelAtCurrentInstant(t *testing.T) {
	e := NewEngine()
	fired := 0
	var cancelled bool
	e.At(5, func() {
		tm := e.At(5, func() { t.Error("cancelled event fired") })
		keep := e.At(5, func() { fired++ })
		if e.Pending() < 2 {
			t.Errorf("Pending() = %d before cancel, want ≥ 2", e.Pending())
		}
		cancelled = tm.Cancel()
		if tm.Pending() {
			t.Error("timer still pending after cancel")
		}
		if !keep.Pending() {
			t.Error("uncancelled timer lost")
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

// TestRunUntilDeadlineSameInstantWork checks that events an event at the
// RunUntil deadline schedules for the deadline itself fire in that run
// (the deadline is inclusive), and that At(Now()) outside a run fires on
// the next one.
func TestRunUntilDeadlineSameInstantWork(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(7, func() {
		e.At(7, func() { fired++ })
	})
	e.RunUntil(7)
	if fired != 1 {
		t.Fatalf("event at the deadline fired %d times, want 1", fired)
	}
	e.At(e.Now(), func() { fired++ })
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("At(Now()) outside a run: fired %d, want 2", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(10, func() { fired = true })
	if !tm.Pending() {
		t.Error("timer should be pending before Run")
	}
	if !tm.Cancel() {
		t.Error("first Cancel should succeed")
	}
	if tm.Cancel() {
		t.Error("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.At(10, func() {})
	e.Run()
	if tm.Pending() {
		t.Error("fired timer still pending")
	}
	if tm.Cancel() {
		t.Error("Cancel after fire should report false")
	}
}

func TestTimerCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var fired []int
	var timers []Timer
	for i := 0; i < 20; i++ {
		i := i
		timers = append(timers, e.At(Time(i*10), func() { fired = append(fired, i) }))
	}
	// Cancel every third timer.
	for i := 0; i < 20; i += 3 {
		timers[i].Cancel()
	}
	e.Run()
	for _, v := range fired {
		if v%3 == 0 {
			t.Errorf("cancelled event %d fired", v)
		}
	}
	if len(fired) != 13 {
		t.Errorf("fired %d events, want 13", len(fired))
	}
	// Remaining events must still fire in order.
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Errorf("out of order after cancellations: %v", fired)
		}
	}
}

// Property: for any set of non-negative delays, events fire in nondecreasing
// time order and the engine processes exactly one event per schedule.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, d := range delays {
			e.After(Time(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return e.Processed() == uint64(len(delays))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A queue serves its elements in FIFO order, back to back: each drain
// starts at the instant the previous one completes.
func TestCoreFIFOAndBusyTime(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	var order []int
	var starts []Time
	var q *Queue[int]
	q = NewQueue[int](c, 8, func() Time {
		order = append(order, q.Pop(0))
		starts = append(starts, e.Now())
		return 100
	})
	for i := 0; i < 3; i++ {
		q.Push(i)
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("service order %v, want [0 1 2]", order)
	}
	// Completions at 100, 200 and 300: each is the next drain's start, and
	// the last is the final clock.
	if len(starts) != 3 || starts[0] != 0 || starts[1] != 100 || starts[2] != 200 {
		t.Errorf("drain starts %v, want [0 100 200]", starts)
	}
	if c.BusyTime != 300 {
		t.Errorf("BusyTime = %v, want 300", c.BusyTime)
	}
	if c.JobsDone != 3 {
		t.Errorf("JobsDone = %d, want 3", c.JobsDone)
	}
	if e.Now() != 300 {
		t.Errorf("clock = %v, want 300 (serialized service)", e.Now())
	}
}

// A full queue refuses elements and counts them in Core.Dropped.
func TestCoreQueueBoundDrops(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	var q *Queue[int]
	q = NewQueue[int](c, 2, func() Time { q.Pop(0); return 10 })
	accepted := 0
	// The first Push starts service immediately (not waiting); the next
	// two wait; the rest drop.
	for i := 0; i < 6; i++ {
		if q.Push(i) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Errorf("accepted %d, want 3 (1 in service + 2 queued)", accepted)
	}
	if c.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", c.Dropped)
	}
	e.Run()
	if c.JobsDone != 3 {
		t.Errorf("JobsDone = %d, want 3", c.JobsDone)
	}
}

func TestCoreWorkArrivingWhileBusy(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	var starts []Time
	var q *Queue[int]
	q = NewQueue[int](c, 8, func() Time {
		q.Pop(0)
		starts = append(starts, e.Now())
		return 100
	})
	e.At(0, func() { q.Push(0) })
	// Arrives mid-service of the first element; must wait.
	e.At(50, func() { q.Push(1) })
	e.Run()
	// The first completes at 100, where the second starts; it completes at
	// 200, the final clock.
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 100 || e.Now() != 200 {
		t.Errorf("drain starts %v ending at %v, want [0 100] ending at 200", starts, e.Now())
	}
	if got := c.Utilization(); got != 1.0 {
		t.Errorf("utilization = %v, want 1.0", got)
	}
}

func TestCoreNegativeServiceClamped(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	c.Submit(func() Time { return -5 })
	e.Run()
	if c.BusyTime != 0 {
		t.Errorf("BusyTime = %v, want 0 for clamped negative service", c.BusyTime)
	}
}
