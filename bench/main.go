// Command bench is the repository benchmark. One process runs one named
// workload on the deterministic simulator and prints its metrics as one
// JSON object on the last line of standard output.
//
// Usage:
//
//	bench --workload kv-twitter --seed 1 --seconds 10 --trace 0 [--out DIR]
//
// All simulated clients live in this process on one goroutine: traffic
// crosses the simulated NICs and switch, never a real link or loopback.
// The run repeats the workload's fixed simulated window on fresh topologies
// until --seconds of host time have passed; every repetition must produce
// the same fingerprint. With --trace 0 the output holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics, and three of every
// four repetitions run under a CPU profile and span recording.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"cornflakes/internal/sim"
)

// metric is one declared output metric.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; --trace 0 prints
// exactly these.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"host_ns_per_req", "ns"},
	{"max_rss_mb", "MB"},
	{"sim_goodput_rps", "req/s"},
	{"sim_p50_us", "us"},
	{"sim_p99_us", "us"},
}

// perLayer are the single-layer metrics; --trace 1 prints exactly these.
var perLayer = func() []metric {
	ms := []metric{
		{"sim.events_per_req", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.core_util_max", "ratio"},
		{"sim.queue_wait_us", "us"},
		{"sim.core_drops", "count"},
		{"cachesim.accesses_per_req", "count"},
		{"cachesim.dram_per_req", "count"},
		{"costmodel.cy_per_req.rx", "cycles"},
		{"costmodel.cy_per_req.deserialize", "cycles"},
		{"costmodel.cy_per_req.app", "cycles"},
		{"costmodel.cy_per_req.serialize", "cycles"},
		{"costmodel.cy_per_req.tx", "cycles"},
		{"costmodel.cy_per_req.shed", "cycles"},
		{"costmodel.bytes_copied_per_req", "B"},
		{"costmodel.sg_entries_per_req", "count"},
		{"costmodel.metadata_misses_per_req", "count"},
		{"mem.pinned_allocs_per_req", "count"},
		{"mem.peak_slots", "count"},
		{"nic.frames_per_req", "count"},
		{"nic.sg_entries_per_frame", "count"},
		{"nic.doorbells_per_frame", "count"},
		{"netstack.drops", "count"},
		{"fabric.contention_ns_per_frame", "ns"},
		{"fabric.egress_drops", "count"},
		{"fabric.max_backlog", "count"},
		{"rpc.child_calls_per_req", "count"},
		{"rpc.child_timeouts_per_req", "count"},
		{"rpc.late_child_replies_per_req", "count"},
		{"rpc.useful_frac", "ratio"},
		{"loadgen.retries_per_req", "count"},
		{"loadgen.late_per_req", "count"},
		{"loadgen.useful_frac", "ratio"},
		{"loadgen.fail_frac", "ratio"},
		{"runtime.allocs_per_req", "count"},
		{"runtime.bytes_per_req", "B"},
		{"runtime.gc_cpu_pct", "%"},
		{"runtime.retained_b_per_req", "B"},
	}
	for _, l := range profileLayers {
		ms = append(ms, metric{l + ".self_ns_per_req", "ns"})
	}
	for _, s := range spanNames {
		ms = append(ms, metric{"span." + s + ".per_req", "count"}, metric{"span." + s + ".self_ns", "ns"})
	}
	return append(ms, metric{"trace.overhead_pct", "%"}, metric{"trace.samples", "count"})
}()

// options configure one benchmark process.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// measure overrides the workload's simulated window (tests use a tiny
	// one); zero keeps the frozen window.
	measure sim.Time
	// out, when set, is a directory the run writes its result, spans and
	// CPU profiles into.
	out string
}

// minSetups is how many topology builds setup_s takes its median over.
const minSetups = 15

// report is one run's outcome.
type report struct {
	correct           bool
	attempted, failed uint64
	completed         uint64
	metrics           map[string]float64
	fingerprint       uint64
	checks            map[string]bool
	reps              int
	spans             *spans
	profiles          [][]byte
}

// run executes one benchmark process's work: generate the seed's inputs,
// repeat the workload until the time budget is spent, and reduce.
func run(o options) (*report, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	measure := w.measure
	if o.measure > 0 {
		measure = o.measure
	}
	gen := w.inputs(o.seed)
	rep := &report{}
	if o.trace {
		rep.spans = newSpans()
	}

	var reps []repResult
	var setups []time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		// Traced and untraced repetitions interleave, so the tracing overhead
		// compares runs made under the same host conditions; three in four are
		// traced to gather enough profile samples.
		traced := o.trace && i%4 != 0
		var prof *bytes.Buffer
		var sp *spans
		if traced {
			prof, sp = &bytes.Buffer{}, rep.spans
		}
		r, err := runRep(w, gen, o.seed, measure, sp, prof)
		if err != nil {
			return nil, err
		}
		if prof != nil {
			rep.profiles = append(rep.profiles, prof.Bytes())
		}
		reps = append(reps, r)
		setups = append(setups, r.setup)
		minReps := 1
		if o.trace {
			minReps = 2
		}
		if len(reps) >= minReps && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	for len(setups) < minSetups {
		_, d := timeSetup(w, gen)
		setups = append(setups, d)
	}

	first := reps[0]
	rep.fingerprint = first.fingerprint
	rep.reps = len(reps)
	rep.checks = map[string]bool{}
	same := true
	for _, r := range reps {
		for _, c := range r.checks {
			prev, seen := rep.checks[c.name]
			rep.checks[c.name] = c.ok && (prev || !seen)
		}
		same = same && r.fingerprint == first.fingerprint
	}
	rep.checks["deterministic_reps"] = same
	rep.correct = true
	for _, ok := range rep.checks {
		rep.correct = rep.correct && ok
	}
	rep.attempted, rep.completed, rep.failed = first.attempted, first.completed, first.failed

	m, err := reduce(reps, setups, rep)
	if err != nil {
		return nil, err
	}
	rep.metrics = m
	return rep, nil
}

// reduce turns the repetitions into the full metric set.
func reduce(reps []repResult, setups []time.Duration, rep *report) (map[string]float64, error) {
	m := map[string]float64{}
	for k, v := range reps[0].sim {
		m[k] = v
	}
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	m["setup_s"] = median(setupS)

	var perReq, perEvent [2][]float64 // [untraced, traced]
	var allocs, bytesAlloc, gcCPU, cpu, reqs float64
	var retained []float64
	var tracedIssued uint64
	for _, r := range reps {
		k := 0
		if r.traced {
			k = 1
			tracedIssued += r.issued
		}
		perReq[k] = append(perReq[k], float64(r.ns)/float64(r.reqs))
		perEvent[k] = append(perEvent[k], float64(r.ns)/float64(r.events))
		retained = append(retained, float64(r.retained)/float64(r.issued))
		if !r.traced {
			reqs += float64(r.reqs)
			allocs += r.heap.allocs
			bytesAlloc += r.heap.bytes
			gcCPU += r.heap.gcCPU
			cpu += r.heap.cpu
		}
	}
	m["host_ns_per_req"] = median(perReq[0])
	m["sim.ns_per_event"] = median(perEvent[0])
	m["runtime.allocs_per_req"] = allocs / reqs
	m["runtime.bytes_per_req"] = bytesAlloc / reqs
	m["runtime.gc_cpu_pct"] = 100 * ratio(gcCPU, cpu)
	m["runtime.retained_b_per_req"] = median(retained)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	m["max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB

	if rep.spans == nil {
		return m, nil
	}
	folded := map[string]int64{}
	var samples int64
	for _, p := range rep.profiles {
		f, n, err := foldProfile(p)
		if err != nil {
			return nil, err
		}
		for k, v := range f {
			folded[k] += v
		}
		samples += n
	}
	for _, l := range profileLayers {
		m[l+".self_ns_per_req"] = float64(folded[l]) / float64(tracedIssued)
	}
	for i, name := range spanNames {
		st := rep.spans.stats[i]
		m["span."+name+".per_req"] = float64(st.Count) / float64(tracedIssued)
		m["span."+name+".self_ns"] = ratio(float64(st.SelfNs), float64(st.Count))
	}
	m["trace.overhead_pct"] = 100 * (median(perReq[1])/median(perReq[0]) - 1)
	m["trace.samples"] = float64(samples)
	return m, nil
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the line before the result: what a reader needs to trust it.
type detail struct {
	Workload    string          `json:"workload"`
	Seed        uint64          `json:"seed"`
	Trace       bool            `json:"trace"`
	Fingerprint string          `json:"sim_fingerprint"`
	Completed   uint64          `json:"completed"`
	Reps        int             `json:"reps"`
	Checks      map[string]bool `json:"checks"`
}

func (rep *report) result(trace bool) result {
	declared := endToEnd
	if trace {
		declared = perLayer
	}
	out := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]valueUnit{}}
	for _, d := range declared {
		out.Metrics[d.name] = valueUnit{rep.metrics[d.name], d.unit}
	}
	return out
}

// write emits the detail and result lines, and the artifacts when o.out is
// set.
func write(o options, rep *report, stdout io.Writer) error {
	d := detail{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Fingerprint: fmt.Sprintf("%016x", rep.fingerprint),
		Completed:   rep.completed, Reps: rep.reps, Checks: rep.checks,
	}
	dj, err := json.Marshal(d)
	if err != nil {
		return err
	}
	rj, err := json.Marshal(rep.result(o.trace))
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeArtifacts(o, rep, dj, rj); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", dj, rj)
	return err
}

func writeArtifacts(o options, rep *report, dj, rj []byte) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, o.workload)
	if o.trace {
		base += ".traced"
	}
	files := map[string][]byte{base + ".json": []byte(fmt.Sprintf("%s\n%s\n", dj, rj))}
	if rep.spans != nil {
		sj, err := json.MarshalIndent(spanTable(rep.spans), "", "  ")
		if err != nil {
			return err
		}
		files[base+".spans.json"] = sj
		for i, p := range rep.profiles {
			files[fmt.Sprintf("%s.cpu%d.pprof", base, i)] = p
		}
	}
	for name, b := range files {
		if err := os.WriteFile(name, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printTable writes the result as a name/unit/value table.
func printTable(w io.Writer, r result) {
	for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
		v := r.Metrics[name]
		fmt.Fprintf(w, "%-36s %-7s %14.4f\n", name, v.Unit, v.Value)
	}
	fmt.Fprintf(w, "%-36s %-7s %14v\n", "correct", "", r.Correct)
}

func spanTable(sp *spans) map[string]spanStat {
	t := map[string]spanStat{}
	for i, name := range spanNames {
		t[name] = sp.stats[i]
	}
	return t
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds to keep repeating the workload")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&o.out, "out", "", "directory for result, span and profile artifacts")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := write(o, rep, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printTable(os.Stderr, rep.result(o.trace))
	if !rep.correct {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed")
		os.Exit(1)
	}
}
