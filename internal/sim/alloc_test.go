package sim

import "testing"

// The DES hot loop must not allocate in steady state: every experiment
// schedules millions of events, and per-event garbage was the dominant
// host-side cost before the engine grew its free list. These pins fail the
// suite if scheduling, dispatch, or a queue's serve path regresses to
// allocating again.

// TestScheduleDispatchAllocFree pins 0 allocs/event on the steady-state
// schedule→fire loop in both tiers: after warmup the heap slice, the
// calendar's buckets, the event free list, and the (pre-created) callback
// are all reused. Each run schedules near events a nanosecond apart and
// across the whole calendar horizon, a 250 µs timer that fires and an
// 800 µs one that is cancelled, as a fan-in timer and a request deadline
// are.
func TestScheduleDispatchAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const perRun = 100
	run := func() {
		for i := 0; i < perRun; i++ {
			e.After(Time(i)*Nanosecond, fn)
			e.After(Time(i)*(calBuckets<<calShift)/perRun, fn)
		}
		e.After(250*Microsecond, fn)
		e.After(800*Microsecond, fn).Cancel()
		e.Run()
	}
	// Warm the free list, the heap's capacity and the calendar.
	run()
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("steady-state schedule+dispatch allocated %.2f allocs per %d events (want 0)", allocs, 2*perRun+2)
	}
}

// TestCancelRecyclesAllocFree pins the cancel path: schedule + cancel must
// recycle the event without garbage, from the calendar and from the heap.
func TestCancelRecyclesAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	run := func() {
		near := e.After(Nanosecond, fn)
		e.After(250*Microsecond, fn)
		far := e.After(800*Microsecond, fn)
		if !near.Cancel() || !far.Cancel() {
			t.Fatal("cancel failed")
		}
		e.Run()
	}
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocated %.2f allocs (want 0)", allocs)
	}
}

// TestQueueAllocFree pins the serve path: pushing a value-typed element,
// draining it and completing the drain must not allocate (the drain and
// the core's completion callback are bound once, at construction).
func TestQueueAllocFree(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	var q *Queue[[2]int]
	q = NewQueue[[2]int](c, 64, func() Time {
		q.Pop(0)
		return Nanosecond
	})
	// Warm ring capacity and the event free list.
	for i := 0; i < 8; i++ {
		q.Push([2]int{i, i})
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		q.Push([2]int{1, 2})
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("queue push+serve allocated %.2f allocs per element (want 0)", allocs)
	}
}

// TestTimerStaleAfterRecycle verifies the generation guard: once an event
// fires and its struct is recycled into a new event, Timers for the old use
// must read as spent and must not cancel the new event.
func TestTimerStaleAfterRecycle(t *testing.T) {
	e := NewEngine()
	fired := 0
	t1 := e.After(Nanosecond, func() { fired++ })
	e.Run()
	if t1.Pending() {
		t.Fatal("fired timer still pending")
	}
	if t1.Cancel() {
		t.Fatal("fired timer cancelled")
	}
	// The recycled struct now backs a different event.
	t2 := e.After(Nanosecond, func() { fired++ })
	if t1.Cancel() {
		t.Fatal("stale timer cancelled the recycled event")
	}
	if !t2.Pending() {
		t.Fatal("new event lost")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
}

// BenchmarkEngineScheduleDispatch measures the raw event-loop cost: one
// schedule + one dispatch per iteration.
func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Nanosecond, fn)
		e.Run()
	}
}

// BenchmarkEngineTimerMix is a timer-heavy stress mix: 512 standing
// deadline timers, one cancelled and re-armed 800 µs out per iteration
// (loadgen and rpc cancel most deadlines on completion), plus 8 ns-scale
// link, DMA and core events run to completion. It holds far more timers
// than the bench workloads: rpc-fanout has about 39 far and 19 near
// events pending at a pop. BenchmarkEngineFanoutRequest models that mix.
func BenchmarkEngineTimerMix(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	timers := make([]Timer, 512)
	for i := range timers {
		timers[i] = e.After(800*Microsecond+Time(i)*Nanosecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(timers)
		timers[k].Cancel()
		timers[k] = e.After(800*Microsecond, fn)
		for j := 1; j <= 8; j++ {
			e.After(Time(j)*Nanosecond, fn)
		}
		e.RunUntil(e.Now() + 8*Nanosecond)
	}
}

// BenchmarkEngineFanoutRequest replays one rpc-fanout request's queue
// traffic per op: four 250 µs fan-in timers and an 800 µs deadline, 84
// near events due 8 ns–4 µs ahead, run to completion, and the cancels of
// an earlier request's five timers, all of which complete in time. Eight
// requests' timers stand at once, 40 far events, as the bench workload's
// census reads about 39.
func BenchmarkEngineFanoutRequest(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	const inFlight = 8
	var timers [inFlight][5]Timer
	b.ReportAllocs()
	for i := 0; i < b.N+inFlight; i++ {
		if i == inFlight {
			b.ResetTimer()
		}
		req := &timers[i%inFlight]
		for _, tm := range req {
			tm.Cancel()
		}
		for j := range 4 {
			req[j] = e.After(250*Microsecond, fn)
		}
		req[4] = e.After(800*Microsecond, fn)
		for j := range 84 {
			e.After(8*Nanosecond+Time(j)*(4*Microsecond-8*Nanosecond)/83, fn)
		}
		e.RunUntil(e.Now() + 4*Microsecond)
	}
}

// BenchmarkQueueServe measures push→drain→complete for one element.
func BenchmarkQueueServe(b *testing.B) {
	e := NewEngine()
	c := NewCore(e)
	var q *Queue[[2]int]
	q = NewQueue[[2]int](c, 64, func() Time {
		q.Pop(0)
		return Nanosecond
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push([2]int{i, i})
		e.Run()
	}
}
