package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"cornflakes/internal/costmodel"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// check is one named correctness condition of a repetition.
type check struct {
	name string
	ok   bool
}

// repResult is everything one repetition measured.
type repResult struct {
	traced bool
	setup  time.Duration
	// ns, reqs and events are the host wall time of the measured window and
	// the requests issued and events executed in it.
	ns           int64
	reqs, events uint64
	// issued counts every request the generators drew (warmup included);
	// it is the denominator of the per-request layer counters.
	issued uint64
	// attempted, completed and failed count the measured requests.
	attempted, completed, failed uint64
	// sim holds the deterministic metrics, named as in the output.
	sim         map[string]float64
	checks      []check
	fingerprint uint64
	// retained is the live heap the run left behind, in bytes.
	retained int64
	heap     heapDelta
}

// heapDelta is the Go runtime's allocation and CPU accounting over the
// measured window.
type heapDelta struct {
	allocs, bytes float64
	gcCPU, cpu    float64
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

func readHeap() [6]float64 {
	metrics.Read(heapSamples)
	var v [6]float64
	for i, s := range heapSamples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return v
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() int64 {
	runtime.GC()
	return int64(readHeap()[5])
}

// baseline is a node's counters right after preload, which the run's
// counters are measured against.
type baseline struct {
	slots    int64
	allocs   uint64
	cacheAcc uint64
	dram     uint64
	copied   uint64
	sgPosts  uint64
	metaMiss uint64
}

func takeBaselines(t *topology) []baseline {
	base := make([]baseline, len(t.nodes))
	for i, n := range t.nodes {
		st := n.Alloc.Stats()
		base[i] = baseline{
			slots:    st.SlotsInUse,
			allocs:   st.Allocs,
			cacheAcc: cacheAccesses(n),
			dram:     n.Cache.DRAMAccesses,
			copied:   n.Meter.BytesCopied,
			sgPosts:  n.Meter.SGEntriesPosts,
			metaMiss: n.Meter.MetadataMisses,
		}
	}
	return base
}

// cacheAccesses counts a node's line accesses: every one probes L1.
func cacheAccesses(n *driver.Node) uint64 {
	l1 := n.Cache.Stats()[0]
	return l1.Hits + l1.Misses
}

// timeSetup builds the workload's topology and returns it with how long the
// build took. It first collects garbage and returns free memory to the
// operating system, so every build starts from the same state: no garbage
// to collect, and fresh pages to fault in for its allocations.
func timeSetup(w workload, gen workloads.Generator) (*topology, time.Duration) {
	debug.FreeOSMemory()
	t0 := time.Now()
	t := w.build(gen)
	return t, time.Since(t0)
}

// configs completes the clients' load generator configurations for one
// run: windows, per-client seeds and ids, and the wrappers that count the
// requests issued into *issued and, with sp set, record spans.
func (t *topology) configs(seed uint64, measure sim.Time, issued *uint64, sp *spans) []loadgen.Config {
	cfgs := slices.Clone(t.clients)
	for i := range cfgs {
		cfg := &cfgs[i]
		cfg.Warmup, cfg.Measure = warmup, measure
		cfg.Seed = seed<<16 | uint64(i)
		cfg.ClientID = uint64(i + 1)
		cfg.ShedID = driver.ShedID
		cfg.Gen = countingGen{Generator: cfg.Gen, n: issued, sp: sp}
		if sp != nil {
			cfg.Client = traceClient(cfg.Client, sp)
			cfg.EP = tracedEndpoint{inner: cfg.EP, sp: sp}
		}
	}
	return cfgs
}

// runRep builds the workload's topology and drives one repetition of its
// simulated window. With sp set, the harness's calls into the layers are
// recorded as spans and prof receives a CPU profile of the simulation.
func runRep(w workload, gen workloads.Generator, seed uint64, measure sim.Time, sp *spans, prof io.Writer) (repResult, error) {
	r := repResult{traced: sp != nil}
	t, setup := timeSetup(w, gen)
	r.setup = setup
	base := takeBaselines(t)
	heap0 := liveHeap()

	cfgs := t.configs(seed, measure, &r.issued, sp)
	runners := make([]*loadgen.Runner, len(cfgs))
	var horizon sim.Time
	for i, cfg := range cfgs {
		runners[i] = loadgen.Start(cfg)
		horizon = max(horizon, runners[i].Horizon())
	}

	if sp != nil {
		if err := startProfile(prof); err != nil {
			return r, err
		}
	}
	runUntil := func(at sim.Time) {
		if sp != nil {
			sp.begin(spanRun)
			defer sp.end()
		}
		t.exec.RunUntil(at)
	}
	runUntil(warmup)
	h0 := readHeap()
	reqs, events := r.issued, t.exec.Processed()
	start := time.Now()
	runUntil(warmup + measure)
	r.ns = int64(time.Since(start))
	r.reqs, r.events = r.issued-reqs, t.exec.Processed()-events
	h1 := readHeap()
	r.heap = heapDelta{
		allocs: h1[0] - h0[0],
		bytes:  h1[1] - h0[1],
		gcCPU:  h1[2] - h0[2],
		cpu:    (h1[3] - h1[4]) - (h0[3] - h0[4]),
	}
	runUntil(horizon)
	results := make([]loadgen.Result, len(runners))
	for i, ru := range runners {
		results[i] = ru.Finish()
	}
	// Quiesce: fan-in timers, late replies and frames still on the wire.
	t.exec.Run()
	if sp != nil {
		pprof.StopCPUProfile()
	}
	r.retained = liveHeap() - heap0

	// The results are dropped after this: each holds a 512 KiB latency
	// histogram, and keeping every repetition's would grow max_rss_mb with
	// the repetition count.
	r.collect(t, base, results)
	return r, nil
}

// collect reads the deterministic counters, evaluates the checks and hashes
// the fingerprint once the engine has quiesced.
func (r *repResult) collect(t *topology, base []baseline, results []loadgen.Result) {
	perReq := func(v float64) float64 { return v / float64(r.issued) }
	m := map[string]float64{}

	// Client-visible results.
	var sent, completed, failed, retries, late, hedges uint64
	var goodput float64
	var p50, p99 sim.Time
	for i, res := range results {
		sent += res.Sent
		completed += res.Completed
		failed += res.Shed + res.TimedOut + res.Unresolved + res.BadResponses
		retries += res.Retries
		late += res.LateResponses
		hedges += res.Hedges
		goodput += res.AchievedRps
		p50 = max(p50, quantile(res, t.clients[i].Retry, 0.50))
		p99 = max(p99, quantile(res, t.clients[i].Retry, 0.99))
	}
	r.attempted, r.completed, r.failed = sent, completed, failed
	m["sim_goodput_rps"] = goodput
	m["sim_p50_us"] = p50.Microseconds()
	m["sim_p99_us"] = p99.Microseconds()
	m["loadgen.fail_frac"] = float64(failed) / float64(sent)
	m["loadgen.retries_per_req"] = perReq(float64(retries))
	m["loadgen.late_per_req"] = perReq(float64(late))
	m["loadgen.useful_frac"] = float64(completed) / float64(sent+retries+hedges)

	// sim: events and server cores.
	m["sim.events_per_req"] = perReq(float64(t.exec.Processed()))
	var drops uint64
	var utilMax, waitMax float64
	for _, n := range t.servers {
		c := n.Core
		utilMax = max(utilMax, c.Utilization())
		if c.JobsDone > 0 {
			waitMax = max(waitMax, (c.QueueWait / sim.Time(c.JobsDone)).Microseconds())
		}
		drops += c.Dropped
	}
	m["sim.core_util_max"] = utilMax
	m["sim.queue_wait_us"] = waitMax
	m["sim.core_drops"] = float64(drops)

	// costmodel: the measured servers' cycle receipts and meter counters.
	rec := t.hostReceipt()
	for c := costmodel.CatRx; c <= costmodel.CatShed; c++ {
		m["costmodel.cy_per_req."+c.String()] = perReq(rec.Cycles[c])
	}
	var copied, sg, metaMiss uint64
	var cacheAcc, dram uint64
	var allocs uint64
	var peak int64
	var frames, sgEntries, doorbells, stackDrops uint64
	slotsBack := true
	for i, n := range t.nodes {
		b := base[i]
		cacheAcc += cacheAccesses(n) - b.cacheAcc
		dram += n.Cache.DRAMAccesses - b.dram
		st := n.Alloc.Stats()
		allocs += st.Allocs - b.allocs
		peak = max(peak, st.PeakSlotsInUse-b.slots)
		slotsBack = slotsBack && st.SlotsInUse == b.slots
		u := n.UDP
		frames += u.Port.TxFrames
		sgEntries += u.Port.TxSGEntries
		doorbells += u.Port.TxDoorbells
		stackDrops += u.RxNoMem + u.TxNoMem + u.TxFlushErrs
		if isServer(t, n) {
			copied += n.Meter.BytesCopied - b.copied
			sg += n.Meter.SGEntriesPosts - b.sgPosts
			metaMiss += n.Meter.MetadataMisses - b.metaMiss
		}
	}
	m["cachesim.accesses_per_req"] = perReq(float64(cacheAcc))
	m["cachesim.dram_per_req"] = perReq(float64(dram))
	m["costmodel.bytes_copied_per_req"] = perReq(float64(copied))
	m["costmodel.sg_entries_per_req"] = perReq(float64(sg))
	m["costmodel.metadata_misses_per_req"] = perReq(float64(metaMiss))
	m["mem.pinned_allocs_per_req"] = perReq(float64(allocs))
	m["mem.peak_slots"] = float64(peak)
	m["nic.frames_per_req"] = perReq(float64(frames))
	m["nic.sg_entries_per_frame"] = float64(sgEntries) / float64(frames)
	m["nic.doorbells_per_frame"] = float64(doorbells) / float64(frames)
	m["netstack.drops"] = float64(stackDrops)

	var contention, outFrames float64
	var egressDrops, backlog float64
	if t.rack != nil {
		ts := t.rack.Switch.TotalStats()
		contention, outFrames = ts.ContentionNs, float64(ts.OutFrames)
		egressDrops, backlog = float64(ts.EgressDrops), float64(ts.MaxBacklog)
	}
	m["fabric.contention_ns_per_frame"] = ratio(contention, outFrames)
	m["fabric.egress_drops"] = egressDrops
	m["fabric.max_backlog"] = backlog

	// rpc: the chain's child ledger; on KV topologies every server call is
	// one request attempt and the child counters are zero.
	var handled, childCalls, childTimeouts, lateChild uint64
	if t.chain != nil {
		for _, s := range t.chain.Services {
			handled += s.Handled
			childCalls += s.ChildCalls
			childTimeouts += s.ChildTimeouts
			lateChild += s.LateChildReplies
		}
	} else {
		for _, n := range t.servers {
			handled += n.Core.JobsDone
		}
	}
	m["rpc.child_calls_per_req"] = perReq(float64(childCalls))
	m["rpc.child_timeouts_per_req"] = perReq(float64(childTimeouts))
	m["rpc.late_child_replies_per_req"] = perReq(float64(lateChild))
	// Calls behind completed requests over calls served. Completions are
	// counted for measured requests only, so the issued total is scaled by
	// the measured completion ratio.
	useful := float64(r.issued) * float64(completed) / float64(sent) * float64(t.callsPerReq)
	m["rpc.useful_frac"] = ratio(useful, float64(handled))
	r.sim = m

	// Checks.
	disposal, noBad, samples := true, true, true
	for _, res := range results {
		disposal = disposal && res.Sent == res.Completed+res.Shed+res.TimedOut+res.Unresolved
		noBad = noBad && res.BadResponses == 0
		samples = samples && res.Completed >= 1000
	}
	r.checks = []check{
		{"disposal_exact", disposal},
		{"no_bad_responses", noBad},
		{"p99_samples", samples},
		{"pinned_slots_drained", slotsBack},
	}
	if t.rack != nil {
		r.checks = append(r.checks, check{"no_silent_frame_loss", t.rack.Ledger().SilentLoss(0, 0) == 0})
	}
	if t.chain != nil {
		r.checks = append(r.checks, check{"child_ledgers_exact", t.chain.ChildLedgersExact()})
	}

	// Fingerprint: every deterministic output, in a fixed order.
	h := fnv.New64a()
	for _, res := range results {
		fmt.Fprintf(h, "sent=%d done=%d shed=%d to=%d un=%d bad=%d retr=%d late=%d hedge=%d lat=%d/%d/%d/%d\n",
			res.Sent, res.Completed, res.Shed, res.TimedOut, res.Unresolved, res.BadResponses,
			res.Retries, res.LateResponses, res.Hedges,
			res.Latency.Count(), res.Latency.Mean(), res.Latency.Max(), res.Latency.Quantile(0.999))
	}
	fmt.Fprintf(h, "issued=%d now=%d\n", r.issued, t.exec.Now())
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(h, "%s=%v\n", name, m[name])
	}
	r.fingerprint = h.Sum64()
}

func isServer(t *topology, n *driver.Node) bool {
	for _, s := range t.servers {
		if s == n {
			return true
		}
	}
	return false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladder is the longest a request can take before its client gives up:
// every attempt's deadline plus every capped backoff with its largest jitter.
func ladder(p loadgen.RetryPolicy) sim.Time {
	worst := p.Deadline
	bo := p.Backoff
	for k := 0; k < p.MaxRetries; k++ {
		if p.MaxBackoff > 0 && bo > p.MaxBackoff {
			bo = p.MaxBackoff
		}
		worst += bo + bo/2 + p.Deadline
		bo *= 2
	}
	return worst
}

// quantile is the p-quantile over all of a client's measured requests, with
// each failed request counted at the client's full retry-ladder time: a
// request that fails has missed every latency limit, and a run whose
// requests all fail can never report a latency of 0.
func quantile(res loadgen.Result, policy loadgen.RetryPolicy, p float64) sim.Time {
	if res.Sent == res.Completed {
		return res.Latency.Quantile(p)
	}
	if rank := p * float64(res.Sent); rank <= float64(res.Completed) {
		return res.Latency.Quantile(rank / float64(res.Completed))
	}
	return ladder(policy)
}
