package sim

// Core models a single CPU core as a FIFO server of drains. Work reaches it
// through the Queues on it: each Queue arms one drain while it holds work
// (Submit), and the core runs one drain at a time, charging the virtual
// clock the service time the drain reports. This mirrors the paper's
// single-core server setup (§6.1): a busy-polling core that drains a
// bounded RX ring, with overload visible as queue growth (rising tail
// latency) or RX drops.
type Core struct {
	eng *Engine
	// runs holds the armed drains in submission order.
	runs ring[func() Time]
	busy bool
	// busySince marks the start of the current busy period; BusyTime only
	// accumulates completed busy periods, so mid-period accounting comes
	// from busyElapsed instead of pre-crediting a drain's full service time.
	busySince Time

	// Statistics.
	BusyTime Time   // completed busy periods only; see Utilization
	JobsDone uint64 // drains served
	// Dropped counts elements refused by a full Queue on this core.
	Dropped uint64
	// QueueWait accumulates the wait of every element popped from a Queue
	// on this core (see Queue.Pop); MaxQueueWait is the worst single wait.
	// Together they make queue delay a first-class, per-element observable
	// rather than something inferred from tail latency.
	QueueWait    Time
	MaxQueueWait Time

	// onDone is the completion callback, bound once: the core serves one
	// drain at a time, so completing one allocates nothing.
	onDone func()
}

// NewCore returns an idle core bound to eng.
func NewCore(eng *Engine) *Core {
	c := &Core{eng: eng}
	c.onDone = c.complete
	return c
}

// Submit appends run to the core's FIFO and starts it at once if the core
// is idle. run executes when the core picks it up and returns the service
// time it occupies the core for; a negative time counts as zero. Servers
// do not call it: a Queue submits its drain.
func (c *Core) Submit(run func() Time) {
	c.runs.push(run)
	if !c.busy {
		c.busy = true
		c.busySince = c.eng.Now()
		c.dispatch()
	}
}

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
// start of the simulation. It is exact at every instant — sampling mid-drain
// counts only the portion already served, so the value can never overshoot
// 1 and never decreases while the core stays busy.
func (c *Core) Utilization() float64 {
	now := c.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(c.busyElapsed()) / float64(now)
}

func (c *Core) dispatch() {
	if c.runs.len() == 0 {
		c.BusyTime += c.eng.Now() - c.busySince
		c.busy = false
		return
	}
	d := c.runs.pop()()
	if d < 0 {
		d = 0
	}
	c.eng.After(d, c.onDone)
}

// complete fires when the running drain's service time elapses.
func (c *Core) complete() {
	c.JobsDone++
	c.dispatch()
}
