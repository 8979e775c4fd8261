package loadgen

import (
	"math"
	"math/rand/v2"
	"sort"

	"cornflakes/internal/mem"
	"cornflakes/internal/sim"
	"cornflakes/internal/trace"
	"cornflakes/internal/workloads"
)

// Client adapts one serialization system's request/response encoding to
// the load generator. A workload request may take several sequential steps
// (the CDN workload fetches an object's sub-objects one after another).
type Client interface {
	// Steps returns how many request/response exchanges req needs (≥ 1).
	Steps(req workloads.Request) int
	// BuildStep encodes step s of req; the returned payload must carry id
	// so the matching response can be identified.
	BuildStep(id uint64, req workloads.Request, s int) []byte
	// ResponseID extracts the id from a response payload.
	ResponseID(payload []byte) (uint64, error)
}

// Endpoint is the client-side transport: both *netstack.UDP and
// *netstack.TCPConn satisfy it.
type Endpoint interface {
	SendContiguous(payload []byte, sim uint64) error
	SetRecvHandler(fn func(payload *mem.Buf))
}

// RetryPolicy gives requests a virtual-time deadline and capped
// exponential backoff with jitter. The zero value disables timeouts:
// requests wait forever, the pre-overload-work behavior. Jitter is drawn
// from a sim.Rand forked off the run seed, so retry schedules are
// bit-for-bit replayable.
type RetryPolicy struct {
	// Deadline is the per-attempt timeout. Zero disables the policy.
	Deadline sim.Time
	// MaxRetries is the number of re-sends after the first attempt. The
	// budget is per flow, shared across a multi-step request's steps.
	MaxRetries int
	// Backoff is the base delay before retry k, doubled each retry
	// (Backoff, 2·Backoff, 4·Backoff, …) and capped at MaxBackoff.
	Backoff sim.Time
	// MaxBackoff caps the exponential growth. Zero means no cap.
	MaxBackoff sim.Time
}

// enabled reports whether the policy arms timers at all.
func (p RetryPolicy) enabled() bool { return p.Deadline > 0 }

// HedgePolicy arms hedged requests: if an attempt has not resolved after
// Delay (plus seeded jitter up to Jitter), a second copy of the request is
// fired — at a different replica when the client routes by attempt — and
// the first reply wins. The loser's reply is retired as HedgeWasted, never
// double-completed, and a duplicated copy of it counts Late. The zero
// value disables hedging; a disabled policy adds no events and draws no
// randomness, so existing runs replay bit for bit.
type HedgePolicy struct {
	// Delay is how long an attempt may run before its hedge fires. It
	// should sit near the healthy p99 — early enough to rescue tail
	// requests, late enough that most requests never hedge.
	Delay sim.Time
	// Jitter adds a uniform [0, Jitter) draw to each hedge delay so
	// synchronized clients do not hedge in phase.
	Jitter sim.Time
}

// enabled reports whether hedge timers are armed at all.
func (p HedgePolicy) enabled() bool { return p.Delay > 0 }

// AttemptRouter is implemented by clients whose routing wants the attempt
// index: the generator announces attempt k (0 = first try; retries and
// hedges increment) immediately before the corresponding BuildStep, so a
// failover-routing client can steer each attempt to a different replica.
type AttemptRouter interface {
	RouteAttempt(attempt int)
}

// backoffFor returns the capped backoff before retry k (0-based).
func (p RetryPolicy) backoffFor(k int) sim.Time {
	b := p.Backoff
	for i := 0; i < k; i++ {
		b *= 2
		if p.MaxBackoff > 0 && b >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && b > p.MaxBackoff {
		b = p.MaxBackoff
	}
	return b
}

// Config drives one load generation run.
type Config struct {
	// Eng is the engine the client's activity is scheduled on.
	Eng *sim.Engine
	// Exec, when set, is what Run/RunMany drive instead of Eng, such as a
	// testbed's Exec handle (which is its engine). Nil means drive Eng.
	Exec sim.Runner
	// EP is the client-side endpoint. A load generator's costs are not
	// metered: the paper's load generator is a dedicated 16-thread machine
	// (§6.1.1), so package driver builds client nodes whose meter models no
	// cache, and no client meter is drained into simulated time.
	EP       Endpoint
	Gen      workloads.Generator
	Client   Client
	RatePerS float64 // offered load in requests (objects) per second
	Warmup   sim.Time
	Measure  sim.Time
	Seed     uint64

	// Retry configures per-request deadlines and retries (zero = off).
	Retry RetryPolicy
	// Hedge configures hedged requests (zero = off). A hedge shares its
	// primary's deadline: if neither copy answers before the attempt's
	// deadline, both are abandoned together and the retry ladder proceeds.
	Hedge HedgePolicy
	// Buckets, when > 0, slices the measurement window into this many
	// equal time buckets and counts completions per bucket
	// (Result.BucketCompleted) — the goodput-over-time trace a recovery
	// check needs to see a crash dip and re-convergence.
	Buckets int
	// ShedID, when set, classifies a payload as an explicit server
	// rejection and extracts its request id (wired to driver.ShedID).
	// Shed flows are terminal — retrying work the server just refused
	// would amplify the overload the shed exists to relieve.
	ShedID func(p []byte) (uint64, bool)

	// Tracer, when set, records a span timeline for every flow: the client
	// marks sends, backoffs and terminal outcomes here, and registers each
	// attempt's wire id so the instrumented transport layers (NIC observer,
	// server dispatch) can attribute their marks to the owning flow.
	Tracer *trace.Tracer

	// ClientID distinguishes concurrent load generators sharing one engine
	// (a cluster run). Client c's wire ids live in [c<<48, (c+1)<<48), so
	// replies and trace attributions can never collide across clients, and
	// the retry-jitter PRNG is forked per client so adding a node to a
	// topology never perturbs another client's random sequence. Zero — a
	// solo run — preserves the historical id and jitter streams bit for bit.
	ClientID uint64
}

// Result summarises one run. With the retry policy enabled the accounting
// for measured requests is exact: Sent == Completed + Shed + TimedOut +
// Unresolved, so overload runs terminate with every request explicitly
// disposed. (Without it, completions are only counted inside the
// measurement window, the historical throughput-curve semantics.)
type Result struct {
	OfferedRps float64
	// SentRps is the realized offered load: requests actually issued in
	// the measurement window per second (Poisson noise makes it differ
	// from OfferedRps on short windows).
	SentRps      float64
	AchievedRps  float64
	AchievedGbps float64 // response payload bits per second in the window
	Latency      *Histogram
	Sent         uint64 // requests issued in the measurement window
	Completed    uint64
	BadResponses uint64

	// Shed counts measured requests ended by an explicit server
	// rejection; TimedOut counts measured requests that exhausted their
	// deadline and retry budget.
	Shed     uint64
	TimedOut uint64
	// Retries counts re-send attempts across all flows (warmup included).
	Retries uint64
	// LateResponses counts responses (including duplicate and shed
	// replies) that arrived for a flow already completed or abandoned.
	LateResponses uint64
	// Unresolved counts measured requests still in flight when the run's
	// drain window closed — always zero when the retry policy is enabled.
	Unresolved uint64

	// Hedge accounting (warmup included, like Retries). Hedges counts
	// second attempts launched; HedgeWins counts flows whose hedge (not
	// primary) answered first; HedgeWasted counts the first reply that
	// arrived for the losing side of a decided race (a duplicated copy of
	// it counts in LateResponses). Every hedged flow still disposes
	// exactly once, so Sent == Completed + Shed + TimedOut + Unresolved
	// holds unchanged.
	Hedges      uint64
	HedgeWins   uint64
	HedgeWasted uint64

	// BucketCompleted, when Config.Buckets > 0, counts completions per
	// equal slice of the measurement window (completions landing in the
	// drain window are not bucketed).
	BucketCompleted []uint64
}

// P99 returns the 99th-percentile latency, or 0 when no requests
// completed — the explicit zero-goodput point of a fully overloaded run,
// rather than a division by zero.
func (r Result) P99() sim.Time {
	if r.Latency == nil || r.Latency.Count() == 0 {
		return 0
	}
	return r.Latency.Quantile(0.99)
}

// P50 returns the median latency, with the same zero-when-empty
// convention as P99.
func (r Result) P50() sim.Time {
	if r.Latency == nil || r.Latency.Count() == 0 {
		return 0
	}
	return r.Latency.Quantile(0.50)
}

// flow tracks one in-progress (possibly multi-step) request.
type flow struct {
	req      workloads.Request
	step     int
	start    sim.Time
	measured bool
	// attempts is the number of retries consumed (per flow, not per step).
	attempts int
	// route is the failover route index of the current primary. It tracks
	// attempts except that an expired hedged pair advances it by two: the
	// hedge consumed the next replica slot, so the retry must not re-route
	// to the replica the hedge already tried.
	route int
	// timer is the pending deadline for the current attempt.
	timer sim.Timer
	// hedgeTimer is the pending hedge launch for the current attempt.
	hedgeTimer sim.Timer
	// primaryID/hedgeID are the wire ids of the current attempt's two
	// racers; hedged marks that the hedge was actually launched.
	primaryID uint64
	hedgeID   uint64
	hedged    bool
	// tr is the flow's trace record (nil when tracing is off).
	tr *trace.Flow
	// respBytes sums the flow's answered intermediate steps; it joins the
	// run's byte count only if the flow completes.
	respBytes uint64
	// bound holds the flow's timer callbacks: the hedge launch, the
	// deadline of the attempt whose primary is primaryID, and the backoff
	// re-send. They are bound to the flow once, when it is built, and kept
	// across reuse, so arming a timer allocates nothing.
	bound struct{ hedge, deadline, resend func() }
}

// Runner is one in-flight load generation run. Start schedules all of a
// run's activity on the engine and returns immediately; the caller drives
// the engine (to at least Horizon()) and then calls Finish. This split lets
// a cluster testbed start M clients on one shared engine, run the engine
// once, and collect every client's result — Run composes the two for the
// historical single-client call shape.
type Runner struct {
	cfg       Config
	res       Result
	flows     map[uint64]*flow
	respBytes uint64
	horizon   sim.Time
	// flowPool recycles flow structs whose request reached a terminal
	// outcome (completed, shed, or timed out with no retries left). Every
	// terminal path cancels the flow's timers and unregisters its wire ids
	// first, so a parked flow has no live references.
	flowPool []*flow
	// wasted holds the loser ids of decided hedge races whose reply has not
	// arrived yet; the reply retires its id, so the map holds only losers
	// that never answered.
	wasted map[uint64]bool
}

// getFlow takes a parked flow, or builds one with build when none is
// parked.
func (ru *Runner) getFlow(build func() *flow) *flow {
	if k := len(ru.flowPool); k > 0 {
		f := ru.flowPool[k-1]
		ru.flowPool = ru.flowPool[:k-1]
		return f
	}
	return build()
}

// putFlow parks f, cleared but for its bound timer callbacks.
func (ru *Runner) putFlow(f *flow) {
	*f = flow{bound: f.bound}
	ru.flowPool = append(ru.flowPool, f)
}

// Run executes one open-loop run and returns the measured result.
func Run(cfg Config) Result {
	ru := Start(cfg)
	cfg.runner().RunUntil(ru.Horizon())
	return ru.Finish()
}

// runner returns what drives the engine loop: Exec when set, else Eng.
func (cfg Config) runner() sim.Runner {
	if cfg.Exec != nil {
		return cfg.Exec
	}
	return cfg.Eng
}

// Start schedules one open-loop run on cfg.Eng and returns its Runner.
func Start(cfg Config) *Runner {
	eng := cfg.Eng
	r := rand.New(rand.NewPCG(cfg.Seed, 0x10AD))
	ru := &Runner{
		cfg:    cfg,
		res:    Result{OfferedRps: cfg.RatePerS, Latency: NewHistogram()},
		flows:  map[uint64]*flow{},
		wasted: map[uint64]bool{},
	}
	if cfg.Buckets > 0 {
		ru.res.BucketCompleted = make([]uint64, cfg.Buckets)
	}
	res := &ru.res

	interarrival := func() sim.Time {
		// Exponential interarrival for a Poisson process.
		u := r.Float64()
		if u <= 0 {
			u = 1e-12
		}
		return sim.FromSeconds(-math.Log(u) / cfg.RatePerS)
	}

	var (
		firstID    = cfg.ClientID << 48
		nextID     = firstID
		flows      = ru.flows
		wasted     = ru.wasted
		measureEnd = cfg.Warmup + cfg.Measure
		// jitter is independent of the workload stream so enabling retries
		// does not perturb which requests are generated. Each cluster client
		// forks its own sub-stream off the shared label space; a solo run
		// (ClientID 0) keeps the historical root stream.
		jitter = sim.NewRand(cfg.Seed ^ 0xBACC0FF)
		// hedgeRng feeds only hedge-delay jitter, on its own sub-stream, so
		// enabling hedging never perturbs the retry-jitter sequence (and a
		// disabled hedge policy draws nothing at all).
		hedgeRng = sim.NewRand(cfg.Seed ^ 0x4ED9E)
	)
	if cfg.ClientID != 0 {
		jitter = jitter.Fork(cfg.ClientID)
		hedgeRng = hedgeRng.Fork(cfg.ClientID)
	}

	// announce tells an attempt-routing client which attempt index the next
	// BuildStep belongs to. Nil for plain clients — no behavior change.
	router, _ := cfg.Client.(AttemptRouter)
	announce := func(attempt int) {
		if router != nil {
			router.RouteAttempt(attempt)
		}
	}

	// sendAttempt sends f's current step under a fresh wire id, routed as
	// failover route index route, and returns the id.
	sendAttempt := func(f *flow, route int) uint64 {
		id := nextID
		nextID++
		flows[id] = f
		// Register the attempt before posting: the NIC observer's marks for
		// this frame resolve through the wire id registered here.
		cfg.Tracer.Attempt(f.tr, id, eng.Now())
		announce(route)
		// The client's meter models no cache, so no simulated source
		// address is read: the payload goes out from address 0.
		cfg.EP.SendContiguous(cfg.Client.BuildStep(id, f.req, f.step), 0)
		return id
	}

	// hedge fires the second racer of f's current attempt, routed as route
	// index route+1 so failover routing picks a different replica than the
	// primary. Its timer is cancelled whenever the attempt resolves or
	// expires, so the primary it races is always f.primaryID.
	hedge := func(f *flow) {
		if flows[f.primaryID] != f {
			return // primary already resolved; no hedge needed
		}
		f.hedgeID = sendAttempt(f, f.route+1)
		f.hedged = true
		res.Hedges++
	}

	// expire ends f's current attempt at its deadline: it retries after a
	// backoff while the flow's budget lasts, and times the flow out after.
	// Resolving an attempt cancels its deadline, and only a resolved or
	// expired attempt is followed by another, so the expiring attempt's
	// primary is always f.primaryID.
	expire := func(f *flow) {
		id := f.primaryID
		if flows[id] != f {
			return // resolved in the meantime
		}
		delete(flows, id)
		// The hedge shares its primary's deadline: abandon the launched
		// copy (its reply counts Late) or disarm the pending launch, so one
		// timeout disposes the whole race.
		f.hedgeTimer.Cancel()
		if f.hedged {
			if flows[f.hedgeID] == f {
				delete(flows, f.hedgeID)
				cfg.Tracer.AttemptEnd(f.hedgeID)
			}
			f.hedged = false
			f.route++ // the hedge consumed the next failover slot
		}
		willRetry := f.attempts < cfg.Retry.MaxRetries
		cfg.Tracer.Timeout(f.tr, id, eng.Now(), willRetry)
		if !willRetry {
			if f.measured {
				res.TimedOut++
			}
			cfg.Tracer.EndFlow(f.tr, eng.Now(), trace.OutcomeTimedOut)
			ru.putFlow(f)
			return
		}
		// Capped exponential backoff plus jitter of up to half the
		// backoff, so synchronized clients do not retry in phase.
		bo := cfg.Retry.backoffFor(f.attempts)
		f.attempts++
		f.route++
		res.Retries++
		delay := bo + jitter.Duration(bo/2)
		if delay <= 0 {
			delay = 1 // After(0) would re-enter sendStep inline
		}
		eng.After(delay, f.bound.resend)
	}

	sendStep := func(f *flow) {
		f.primaryID = sendAttempt(f, f.route)
		f.hedged = false
		if cfg.Hedge.enabled() {
			delay := cfg.Hedge.Delay + hedgeRng.Duration(cfg.Hedge.Jitter)
			f.hedgeTimer = eng.After(delay, f.bound.hedge)
		}
		if cfg.Retry.enabled() {
			f.timer = eng.After(cfg.Retry.Deadline, f.bound.deadline)
		}
	}

	// newFlow builds a flow with its timer callbacks bound.
	newFlow := func() *flow {
		f := &flow{}
		f.bound.hedge = func() { hedge(f) }
		f.bound.deadline = func() { expire(f) }
		f.bound.resend = func() { sendStep(f) }
		return f
	}

	// resolve ends the current attempt's bookkeeping for a delivered id.
	// When the attempt was a two-racer hedge, the loser's wire id is
	// retired as wasted — its reply, if it ever arrives, is hedge waste,
	// never a second completion.
	resolve := func(id uint64, f *flow) {
		f.timer.Cancel()
		f.hedgeTimer.Cancel()
		delete(flows, id)
		cfg.Tracer.AttemptEnd(id)
		if f.hedged {
			if id == f.hedgeID {
				res.HedgeWins++
			}
			loser := f.primaryID
			if id == f.primaryID {
				loser = f.hedgeID
			}
			if flows[loser] == f {
				delete(flows, loser)
				wasted[loser] = true
				cfg.Tracer.AttemptEnd(loser)
			}
			f.hedged = false
		}
	}

	// stray counts a reply, shed or served, whose wire id has no live flow.
	// Every id this run issued lies in [firstID, nextID), and one that is
	// neither live nor an unanswered hedge loser has had its flow end or
	// re-send.
	stray := func(id uint64) {
		switch {
		case wasted[id]:
			// The losing side of a decided hedge race answered: the
			// redundancy cost of hedging, counted, never a second
			// completion. Its id retires here, so a duplicated copy of
			// the reply counts Late.
			delete(wasted, id)
			res.HedgeWasted++
		case firstID <= id && id < nextID:
			// A reply for an attempt we already resolved or retried:
			// expected under timeouts (the original and the retry can both
			// be answered), not a protocol error.
			res.LateResponses++
		default:
			res.BadResponses++
		}
	}

	cfg.EP.SetRecvHandler(func(p *mem.Buf) {
		defer p.DecRef()
		now := eng.Now()
		// Shed replies carry their own framing and never parse as a
		// serialized response, so classify them first.
		if cfg.ShedID != nil {
			if id, ok := cfg.ShedID(p.Bytes()); ok {
				f, ok := flows[id]
				if !ok {
					stray(id)
					return
				}
				resolve(id, f)
				if f.measured {
					res.Shed++
				}
				cfg.Tracer.EndFlow(f.tr, now, trace.OutcomeShed)
				ru.putFlow(f)
				return
			}
		}
		id, err := cfg.Client.ResponseID(p.Bytes())
		if err != nil {
			res.BadResponses++
			return
		}
		f, ok := flows[id]
		if !ok {
			stray(id)
			return
		}
		resolve(id, f)
		f.step++
		if f.step < cfg.Client.Steps(f.req) {
			f.respBytes += uint64(p.Len())
			sendStep(f)
			return
		}
		if f.measured && (now <= measureEnd || cfg.Retry.enabled()) {
			// With the retry policy on, completions landing in the drain
			// window still count, keeping the disposal accounting exact
			// (sent == completed + shed + timed-out). Without it, the
			// historical window-only semantics are preserved.
			res.Completed++
			ru.respBytes += f.respBytes + uint64(p.Len())
			res.Latency.Record(now - f.start)
			if len(res.BucketCompleted) > 0 && now < measureEnd {
				i := int(int64(now-cfg.Warmup) * int64(len(res.BucketCompleted)) / int64(cfg.Measure))
				if i < 0 {
					i = 0
				}
				if i >= len(res.BucketCompleted) {
					i = len(res.BucketCompleted) - 1
				}
				res.BucketCompleted[i]++
			}
		}
		cfg.Tracer.EndFlow(f.tr, now, trace.OutcomeCompleted)
		ru.putFlow(f)
	})

	var arrive func()
	arrive = func() {
		now := eng.Now()
		if now >= measureEnd {
			return
		}
		req := cfg.Gen.Next(r)
		f := ru.getFlow(newFlow)
		f.req, f.start, f.measured = req, now, now >= cfg.Warmup
		if f.measured {
			res.Sent++
		}
		f.tr = cfg.Tracer.BeginFlow(now, f.measured)
		sendStep(f)
		eng.After(interarrival(), arrive)
	}
	eng.After(interarrival(), arrive)

	// The run is complete at the end of the measurement window plus a drain
	// period so in-flight responses are counted. With retries enabled the
	// drain must cover the worst-case ladder of a request issued at the
	// window's edge: every attempt's deadline plus every capped backoff
	// (jitter adds at most half a backoff each).
	drain := 2 * sim.Millisecond
	if cfg.Retry.enabled() {
		worst := cfg.Retry.Deadline
		for k := 0; k < cfg.Retry.MaxRetries; k++ {
			bo := cfg.Retry.backoffFor(k)
			worst += bo + bo/2 + cfg.Retry.Deadline
		}
		drain += worst
	}
	ru.horizon = measureEnd + drain
	return ru
}

// Horizon returns the virtual time the engine must reach before Finish:
// the measurement window plus the run's drain period.
func (ru *Runner) Horizon() sim.Time { return ru.horizon }

// Finish sweeps abandoned flows and computes the run's rates. Call it once,
// after the engine has run to at least Horizon().
func (ru *Runner) Finish() Result {
	cfg, res := ru.cfg, &ru.res

	// Whatever is still pending went neither way; with timeouts enabled
	// the drain window above guarantees this is empty. Iterate in sorted id
	// order so the tracer's abandonment records — and therefore a trace
	// export — stay deterministic.
	ids := make([]uint64, 0, len(ru.flows))
	for id := range ru.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := ru.flows[id]
		if f.measured {
			res.Unresolved++
		}
		cfg.Tracer.EndFlow(f.tr, cfg.Eng.Now(), trace.OutcomeAbandoned)
	}

	res.SentRps = float64(res.Sent) / cfg.Measure.Seconds()
	res.AchievedRps = float64(res.Completed) / cfg.Measure.Seconds()
	res.AchievedGbps = float64(ru.respBytes) * 8 / cfg.Measure.Seconds() / 1e9
	return ru.res
}

// RunMany executes several runs concurrently on one shared engine: every
// config is started, the engine is driven once to the latest horizon, and
// each run is finished. All configs must share the same Eng; give each a
// distinct ClientID so wire-id spaces and retry-jitter streams stay
// disjoint across the clients.
func RunMany(cfgs []Config) []Result {
	if len(cfgs) == 0 {
		return nil
	}
	runners := make([]*Runner, len(cfgs))
	for i, cfg := range cfgs {
		runners[i] = Start(cfg)
	}
	var horizon sim.Time
	for _, ru := range runners {
		if ru.Horizon() > horizon {
			horizon = ru.Horizon()
		}
	}
	cfgs[0].runner().RunUntil(horizon)
	out := make([]Result, len(runners))
	for i, ru := range runners {
		out[i] = ru.Finish()
	}
	return out
}

// GeometricRates builds a rate ladder from lo to hi with the given number
// of steps (inclusive), spaced geometrically.
func GeometricRates(lo, hi float64, steps int) []float64 {
	if steps < 2 {
		return []float64{hi}
	}
	rates := make([]float64, steps)
	ratio := math.Pow(hi/lo, 1/float64(steps-1))
	v := lo
	for i := range rates {
		rates[i] = v
		v *= ratio
	}
	return rates
}
