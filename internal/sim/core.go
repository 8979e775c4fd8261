package sim

// Job is a unit of work submitted to a Core. Run executes when the core
// picks the job up and returns the service time the job occupies the core
// for; Done (optional) fires when that service time elapses; Start
// (optional) fires when the core picks the job up, just before Run, with
// the time the job was submitted — so queue wait (pickup − submission) is
// observable per job, which the per-request tracer needs.
type Job struct {
	Run   func() Time
	Done  func()
	Start func(enqueuedAt Time)
	// ExternalWait marks a job whose submitter accounts queue waits itself
	// through AccountWait — a batch drainer serving several requests per
	// dispatch, where the job-level wait (pickup − submission of the
	// drainer) describes none of the requests inside the batch. Dispatch
	// skips the built-in QueueWait/MaxQueueWait accounting for such jobs so
	// per-request waits are recorded exactly once.
	ExternalWait bool
}

// queuedJob pairs a job with its submission time so queue wait can be
// accounted when the job is dispatched.
type queuedJob struct {
	job Job
	enq Time
}

// Core models a single CPU core as a FIFO queueing server. Work arrives via
// Submit; the core serves one job at a time, charging the virtual clock the
// service time each job's Run reports. This mirrors the paper's single-core
// server setup (§6.1): a busy-spinning core that handles one packet at a
// time, with overload visible as queue growth (rising tail latency) or RX
// drops.
type Core struct {
	eng *Engine
	// q[qh:] holds the waiting jobs: dispatch advances qh instead of
	// shifting the slice (the shift made deep overload queues O(n²) — one
	// typedslicecopy of the whole backlog per job served). Spent entries
	// are zeroed as they are passed so the backing array pins nothing.
	q    []queuedJob
	qh   int
	busy bool
	// busySince marks the start of the current busy period; BusyTime only
	// accumulates completed busy periods, so mid-period accounting comes
	// from busyElapsed instead of pre-crediting a job's full service time.
	busySince Time

	// MaxQueue bounds the number of waiting jobs; submissions beyond it are
	// dropped (counted in Dropped). Zero means unbounded. A bound models the
	// finite RX descriptor ring: under overload a kernel-bypass server drops
	// packets rather than queueing forever.
	MaxQueue int

	// Statistics.
	BusyTime Time // completed busy periods only; see Utilization
	JobsDone uint64
	Dropped  uint64
	// QueueWait accumulates submission→dispatch wait across all dispatched
	// jobs; MaxQueueWait is the worst single wait. Together with Job.Start
	// these make queue delay a first-class, per-job observable rather than
	// something inferred from tail latency.
	QueueWait    Time
	MaxQueueWait Time

	// curDone holds the Done hook of the job in service. The core serves one
	// job at a time, so a single slot (plus the one pre-bound onDone closure
	// below) replaces the per-job completion closure dispatch used to
	// allocate — the dominant per-job allocation on the hot path.
	curDone func()
	onDone  func()
}

// NewCore returns an idle core bound to eng.
func NewCore(eng *Engine) *Core {
	c := &Core{eng: eng}
	c.onDone = c.complete
	return c
}

// Submit enqueues a job. It reports false if the queue bound rejected it.
func (c *Core) Submit(j Job) bool {
	if c.MaxQueue > 0 && len(c.q)-c.qh >= c.MaxQueue {
		c.Dropped++
		return false
	}
	c.q = append(c.q, queuedJob{job: j, enq: c.eng.Now()})
	if !c.busy {
		c.busy = true
		c.busySince = c.eng.Now()
		c.dispatch()
	}
	return true
}

// QueueLen returns the number of jobs waiting (not including the one in
// service).
func (c *Core) QueueLen() int { return len(c.q) - c.qh }

// AccountWait records the queue wait of one request served inside a batch
// job (submitted with ExternalWait): the time from the request's arrival to
// the batch dispatch, plus the service of the batch members ahead of it.
// Without this, waits for requests 2..B of a B-request batch would be
// invisible in QueueWait/MaxQueueWait and the stats would understate
// queueing exactly when batching creates it.
func (c *Core) AccountWait(w Time) {
	c.QueueWait += w
	if w > c.MaxQueueWait {
		c.MaxQueueWait = w
	}
}

// NoteDrop counts a request dropped by a queue bound enforced outside the
// core (the batched path's RX ring), so Dropped stays the single drop
// counter whichever datapath is active.
func (c *Core) NoteDrop() { c.Dropped++ }

// busyElapsed is the busy time actually elapsed by now: completed busy
// periods plus the in-progress one. Unlike the pre-fix accounting (which
// credited a job's full service time at dispatch), this never counts time
// that has not passed yet.
func (c *Core) busyElapsed() Time {
	b := c.BusyTime
	if c.busy {
		b += c.eng.Now() - c.busySince
	}
	return b
}

// Utilization returns the fraction of time the core has been busy since the
// start of the simulation. It is exact at every instant — sampling mid-job
// counts only the portion of the job already served, so the value can never
// overshoot 1 and never decreases while the core stays busy.
func (c *Core) Utilization() float64 {
	now := c.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(c.busyElapsed()) / float64(now)
}

func (c *Core) dispatch() {
	if c.qh == len(c.q) {
		// Busy period over: bank it and rewind the drained queue so the
		// backing array is reused from the front.
		c.q, c.qh = c.q[:0], 0
		c.BusyTime += c.eng.Now() - c.busySince
		c.busy = false
		return
	}
	qj := c.q[c.qh]
	c.q[c.qh] = queuedJob{}
	c.qh++
	if c.qh == len(c.q) {
		c.q, c.qh = c.q[:0], 0
	}

	if !qj.job.ExternalWait {
		wait := c.eng.Now() - qj.enq
		c.QueueWait += wait
		if wait > c.MaxQueueWait {
			c.MaxQueueWait = wait
		}
	}
	if qj.job.Start != nil {
		qj.job.Start(qj.enq)
	}
	d := qj.job.Run()
	if d < 0 {
		d = 0
	}
	c.curDone = qj.job.Done
	c.eng.After(d, c.onDone)
}

// complete fires when the in-service job's service time elapses.
func (c *Core) complete() {
	c.JobsDone++
	done := c.curDone
	c.curDone = nil
	if done != nil {
		done()
	}
	c.dispatch()
}
