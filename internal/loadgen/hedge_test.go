package loadgen

import (
	"testing"

	"cornflakes/internal/mem"
	"cornflakes/internal/sim"
)

// parityEndpoint swallows every odd send (the primaries) and echoes the
// even ones (the hedges) after echoDelay — a server whose first answer is
// always lost, isolating the hedge-wins path.
type parityEndpoint struct {
	eng       *sim.Engine
	alloc     *mem.Allocator
	recv      func(*mem.Buf)
	echoDelay sim.Time
	sent      int
}

func (d *parityEndpoint) SetRecvHandler(fn func(*mem.Buf)) { d.recv = fn }

func (d *parityEndpoint) SendContiguous(payload []byte, _ uint64) error {
	d.sent++
	if d.sent%2 == 1 {
		return nil
	}
	reply := append([]byte(nil), payload...)
	d.eng.After(d.echoDelay, func() {
		buf := d.alloc.Alloc(len(reply))
		copy(buf.Bytes(), reply)
		d.recv(buf)
	})
	return nil
}

func hedgeCfg(eng *sim.Engine, ep Endpoint) Config {
	return Config{
		Eng: eng, EP: ep, Gen: genConst{}, Client: idClient{},
		// 100 µs spacing vs ≤ 50 µs resolution: flows never interleave, so
		// the parity endpoint's odd/even split cleanly means primary/hedge.
		RatePerS: 10_000, Warmup: 0, Measure: sim.Millisecond, Seed: 3,
		Retry: RetryPolicy{
			Deadline:   50 * sim.Microsecond,
			MaxRetries: 2,
			Backoff:    10 * sim.Microsecond,
			MaxBackoff: 40 * sim.Microsecond,
		},
		Hedge:  HedgePolicy{Delay: 10 * sim.Microsecond},
		ShedID: testShedID,
	}
}

// A server that loses every primary: each flow is rescued by its hedge, so
// hedges launch for every flow, every win is a hedge win, and the lost
// primaries waste nothing.
func TestHedgeRescuesLostPrimaries(t *testing.T) {
	eng := sim.NewEngine()
	d := &parityEndpoint{eng: eng, alloc: mem.NewAllocator(), echoDelay: 2 * sim.Microsecond}
	res := Run(hedgeCfg(eng, d))
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Completed != res.Sent {
		t.Errorf("completed %d of %d (timedout=%d)", res.Completed, res.Sent, res.TimedOut)
	}
	if res.Hedges != res.Sent {
		t.Errorf("hedges launched = %d, want one per flow (%d)", res.Hedges, res.Sent)
	}
	if res.HedgeWins != res.Sent {
		t.Errorf("hedge wins = %d, want %d — every primary was lost", res.HedgeWins, res.Sent)
	}
	if res.HedgeWasted != 0 {
		t.Errorf("hedge wasted = %d; lost primaries never reply", res.HedgeWasted)
	}
	if res.Retries != 0 {
		t.Errorf("retries = %d; hedges resolved well before the deadline", res.Retries)
	}
}

// A server that answers everything, slower than the hedge delay: both
// racers reply, the primary wins, and the hedge's reply is retired as
// HedgeWasted — never a second completion (satellite a).
func TestHedgeLoserRetiredAsWasted(t *testing.T) {
	eng := sim.NewEngine()
	d := &deafEndpoint{eng: eng, alloc: mem.NewAllocator(), echoDelay: 30 * sim.Microsecond}
	res := Run(hedgeCfg(eng, d))
	if res.Completed != res.Sent {
		t.Errorf("completed %d of %d", res.Completed, res.Sent)
	}
	if res.Hedges != res.Sent {
		t.Errorf("hedges = %d, want %d (30 µs echo > 10 µs hedge delay)", res.Hedges, res.Sent)
	}
	// Primary sent at t answers at t+30; hedge sent at t+10 answers at
	// t+40: primary always wins, hedge reply always lands on a decided race.
	if res.HedgeWins != 0 {
		t.Errorf("hedge wins = %d, want 0", res.HedgeWins)
	}
	if res.HedgeWasted != res.Hedges {
		t.Errorf("hedge wasted = %d, want every losing reply (%d)", res.HedgeWasted, res.Hedges)
	}
	if res.LateResponses != 0 || res.BadResponses != 0 {
		t.Errorf("wasted replies misclassified: late=%d bad=%d", res.LateResponses, res.BadResponses)
	}
}

// The decided races of TestHedgeLoserRetiredAsWasted leave no loser id
// behind: each loser's reply retires its id, so the run's hedge-loser map
// ends empty instead of holding one id per hedge.
func TestHedgeLoserIDsRetired(t *testing.T) {
	eng := sim.NewEngine()
	d := &deafEndpoint{eng: eng, alloc: mem.NewAllocator(), echoDelay: 30 * sim.Microsecond}
	ru := Start(hedgeCfg(eng, d))
	eng.RunUntil(ru.Horizon())
	res := ru.Finish()
	if res.HedgeWasted == 0 || res.HedgeWasted != res.Hedges {
		t.Fatalf("hedge wasted = %d of %d hedges, want every loser to answer", res.HedgeWasted, res.Hedges)
	}
	if n := len(ru.wasted); n != 0 {
		t.Errorf("%d loser ids retained after every loser answered, want 0", n)
	}
}

// A server slower than the deadline: the shared deadline abandons both
// racers together, the flow times out, and both replies come back Late —
// not wasted (no race was decided), not bad (satellite a).
func TestHedgeSharedDeadline(t *testing.T) {
	eng := sim.NewEngine()
	d := &deafEndpoint{eng: eng, alloc: mem.NewAllocator(), echoDelay: 200 * sim.Microsecond}
	cfg := hedgeCfg(eng, d)
	cfg.Retry.MaxRetries = 0
	res := Run(cfg)
	if res.TimedOut != res.Sent || res.Completed != 0 {
		t.Errorf("timedout=%d completed=%d of sent=%d", res.TimedOut, res.Completed, res.Sent)
	}
	if res.Hedges != res.Sent {
		t.Errorf("hedges = %d, want %d", res.Hedges, res.Sent)
	}
	// Both the primary's and the hedge's replies arrive after the timeout.
	if res.LateResponses != 2*res.Sent {
		t.Errorf("late = %d, want both racers' replies (%d)", res.LateResponses, 2*res.Sent)
	}
	if res.HedgeWasted != 0 {
		t.Errorf("wasted = %d; an undecided race wastes nothing", res.HedgeWasted)
	}
	if res.HedgeWins != 0 || res.BadResponses != 0 {
		t.Errorf("wins=%d bad=%d, want 0/0", res.HedgeWins, res.BadResponses)
	}
}

// Regression (hedge × retry double-scheduling audit): when a hedged pair's
// shared deadline expires with BOTH racers still outstanding and retries
// remaining, exactly one retry is scheduled for the pair — never one per
// racer — and every straggler reply classifies Late, never as a second
// completion. The chaos gray triplet exercises this path but never pins the
// retry count; this does, deterministically.
func TestHedgedPairExpiryRetriesOnce(t *testing.T) {
	eng := sim.NewEngine()
	// 200 µs echo > 50 µs deadline: every pair (first attempt and its one
	// retry) expires with both racers in flight, then all replies straggle in.
	d := &deafEndpoint{eng: eng, alloc: mem.NewAllocator(), echoDelay: 200 * sim.Microsecond}
	cfg := hedgeCfg(eng, d)
	cfg.Retry.MaxRetries = 1
	res := Run(cfg)
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	// The pin: one expired hedged pair schedules exactly one retry. A
	// double-schedule (one per racer) would double this.
	if res.Retries != res.Sent {
		t.Errorf("retries = %d, want exactly one per flow (%d)", res.Retries, res.Sent)
	}
	// Both the first attempt and its retry hedge (10 µs delay < 50 µs
	// deadline), so each flow launches exactly two hedges.
	if res.Hedges != 2*res.Sent {
		t.Errorf("hedges = %d, want two per flow (%d)", res.Hedges, 2*res.Sent)
	}
	if res.TimedOut != res.Sent || res.Completed != 0 {
		t.Errorf("timedout=%d completed=%d of sent=%d — straggler replies must never complete an expired flow",
			res.TimedOut, res.Completed, res.Sent)
	}
	// All four racers (2 attempts × 2 racers) eventually answer, after the
	// flow is gone: Late, not wasted (no race was decided), not bad.
	if res.LateResponses != 4*res.Sent {
		t.Errorf("late = %d, want all four racers' replies (%d)", res.LateResponses, 4*res.Sent)
	}
	if res.HedgeWasted != 0 || res.HedgeWins != 0 || res.BadResponses != 0 {
		t.Errorf("wasted=%d wins=%d bad=%d, want 0/0/0", res.HedgeWasted, res.HedgeWins, res.BadResponses)
	}
	if got := res.Completed + res.Shed + res.TimedOut + res.Unresolved; got != res.Sent {
		t.Errorf("disposal not exact: sent=%d resolved=%d", res.Sent, got)
	}
}

// routeRec records every announced failover route index.
type routeRec struct {
	idClient
	routes []int
}

func (c *routeRec) RouteAttempt(a int) { c.routes = append(c.routes, a) }

// Regression: a retry after an expired hedged pair must route PAST the
// replica slot the hedge already consumed. Each flow here sends four racers
// (primary, hedge, retry primary, retry hedge) which must announce route
// indices 0,1,2,3 — before the fix the retry re-announced index 1, re-hitting
// the hedge's replica under failover routing.
func TestHedgeRetryRouteSkipsConsumedSlot(t *testing.T) {
	eng := sim.NewEngine()
	d := &deafEndpoint{eng: eng, alloc: mem.NewAllocator(), echoDelay: 200 * sim.Microsecond}
	cfg := hedgeCfg(eng, d)
	cfg.Retry.MaxRetries = 1
	rec := &routeRec{}
	cfg.Client = rec
	res := Run(cfg)
	counts := map[int]int{}
	for _, a := range rec.routes {
		counts[a]++
	}
	n := int(res.Sent)
	if len(rec.routes) != 4*n {
		t.Fatalf("announced %d routes, want 4 per flow (%d)", len(rec.routes), 4*n)
	}
	for slot := 0; slot < 4; slot++ {
		if counts[slot] != n {
			t.Errorf("route slot %d announced %d times, want once per flow (%d); counts=%v",
				slot, counts[slot], n, counts)
		}
	}
}

// A server faster than the hedge delay: the hedge timer is disarmed before
// it fires, so no hedges launch at all.
func TestHedgeNotLaunchedWhenFast(t *testing.T) {
	eng := sim.NewEngine()
	d := &deafEndpoint{eng: eng, alloc: mem.NewAllocator(), echoDelay: 2 * sim.Microsecond}
	res := Run(hedgeCfg(eng, d))
	if res.Completed != res.Sent {
		t.Errorf("completed %d of %d", res.Completed, res.Sent)
	}
	if res.Hedges != 0 || res.HedgeWins != 0 || res.HedgeWasted != 0 {
		t.Errorf("hedging engaged on a fast server: %d/%d/%d", res.Hedges, res.HedgeWins, res.HedgeWasted)
	}
}

// Hedged runs replay bit for bit from the same seed, and disposal stays
// exact through the hedge machinery.
func TestHedgeDeterministicAndExact(t *testing.T) {
	run := func() Result {
		eng := sim.NewEngine()
		d := &deafEndpoint{
			eng: eng, alloc: mem.NewAllocator(),
			dropFirst: 7, slowFirst: 5, slowDelay: 35 * sim.Microsecond,
			echoDelay: 12 * sim.Microsecond,
		}
		cfg := hedgeCfg(eng, d)
		cfg.Hedge.Jitter = 8 * sim.Microsecond
		return Run(cfg)
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.TimedOut != b.TimedOut ||
		a.Hedges != b.Hedges || a.HedgeWins != b.HedgeWins ||
		a.HedgeWasted != b.HedgeWasted || a.LateResponses != b.LateResponses {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
	if got := a.Completed + a.Shed + a.TimedOut + a.Unresolved; got != a.Sent {
		t.Errorf("accounting: sent=%d resolved=%d", a.Sent, got)
	}
	if a.Hedges == 0 {
		t.Error("mixed scenario launched no hedges")
	}
}

// Buckets slice the measurement window: completions land in order, sum to
// at most Completed (drain-window completions are unbucketed), and the
// slice length matches the config.
func TestBucketCompleted(t *testing.T) {
	eng := sim.NewEngine()
	d := &deafEndpoint{eng: eng, alloc: mem.NewAllocator(), echoDelay: 2 * sim.Microsecond}
	cfg := hedgeCfg(eng, d)
	cfg.Buckets = 8
	cfg.RatePerS = 200_000 // ~25 completions per 125 µs bucket
	res := Run(cfg)
	if len(res.BucketCompleted) != 8 {
		t.Fatalf("bucket count = %d, want 8", len(res.BucketCompleted))
	}
	var sum uint64
	for _, n := range res.BucketCompleted {
		sum += n
	}
	if sum == 0 || sum > res.Completed {
		t.Errorf("bucket sum = %d vs completed %d", sum, res.Completed)
	}
	// 10k rps over 8 buckets of 125 µs: every bucket should see traffic.
	for i, n := range res.BucketCompleted {
		if n == 0 {
			t.Errorf("bucket %d empty (%v)", i, res.BucketCompleted)
		}
	}
}
