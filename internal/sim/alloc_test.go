package sim

import "testing"

// The DES hot loop must not allocate in steady state: every experiment
// schedules millions of events, and per-event garbage was the dominant
// host-side cost before the engine grew its free list. These pins fail the
// suite if scheduling, dispatch, or the core's completion path regresses
// to allocating again.

// TestScheduleDispatchAllocFree pins 0 allocs/event on the steady-state
// schedule→fire loop: after warmup the heap slice, the event free list,
// and the (pre-created) callback are all reused.
func TestScheduleDispatchAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the free list and heap capacity.
	for i := 0; i < 64; i++ {
		e.After(Nanosecond, fn)
	}
	e.Run()
	const perRun = 100
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < perRun; i++ {
			e.After(Time(i)*Nanosecond, fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+dispatch allocated %.2f allocs per %d events (want 0)", allocs, perRun)
	}
}

// TestCancelRecyclesAllocFree pins the cancel path: schedule + cancel must
// recycle the event without garbage.
func TestCancelRecyclesAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 8; i++ {
		e.After(Nanosecond, fn).Cancel()
	}
	allocs := testing.AllocsPerRun(100, func() {
		tm := e.After(Nanosecond, fn)
		if !tm.Cancel() {
			t.Fatal("cancel failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocated %.2f allocs (want 0)", allocs)
	}
}

// TestCoreJobAllocFree pins the core's dispatch/completion path: submitting
// and serving a pre-built job must not allocate (the completion callback is
// bound once at NewCore, not per job).
func TestCoreJobAllocFree(t *testing.T) {
	e := NewEngine()
	c := NewCore(e)
	job := Job{Run: func() Time { return Nanosecond }}
	// Warm queue capacity and the event free list.
	for i := 0; i < 8; i++ {
		c.Submit(job)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		c.Submit(job)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("core submit+serve allocated %.2f allocs per job (want 0)", allocs)
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

// BenchmarkEngineTimerMix models the rpc-fanout event mix: 512 standing
// deadline timers, one cancelled and re-armed 800 µs out per iteration
// (loadgen and rpc cancel most deadlines on completion), plus 8 ns-scale
// link, DMA and core events run to completion.
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

// BenchmarkCoreServeJob measures submit→serve→complete for one job.
func BenchmarkCoreServeJob(b *testing.B) {
	e := NewEngine()
	c := NewCore(e)
	job := Job{Run: func() Time { return Nanosecond }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Submit(job)
		e.Run()
	}
}
