// Command cf-bench regenerates the paper's tables and figures on the
// simulated substrate and prints them with shape checks.
//
// Usage:
//
//	cf-bench -exp fig2            # one experiment
//	cf-bench -exp all             # everything (takes a while)
//	cf-bench -exp tab1 -quick     # reduced scale
//	cf-bench -batch               # the batched-datapath sweep (-exp batching)
//	cf-bench -cluster             # the multi-node scale-out grid (-exp cluster)
//	cf-bench -chaos               # crash/flap/gray fault scenarios (-exp chaos)
//	cf-bench -rpc                 # serializer-aware RPC chains over the rack (-exp rpc)
//	cf-bench -exp fig7 -parallel 4  # fan sweep points across 4 goroutines
//	cf-bench -exp fig3 -quick -parallel 1 -cpuprofile cpu.prof
//	cf-bench -exp fig5 -quick -parallel 1 -memprofile mem.prof
//
// -cpuprofile/-memprofile write pprof profiles of the experiment runs (use
// -parallel 1 so samples land on the serial hot loops rather than sweep
// workers); `make profile` wraps the common invocation.
//
// -parallel (default GOMAXPROCS) only changes wall-clock: sweep points run
// on independent testbeds and merge in point order, so reports are
// byte-identical at any width (gated by TestSerialParallelFingerprints).
//
// `cf-bench -list` prints every registered experiment id.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"cornflakes/internal/experiments"
)

func main() {
	// Indirection so the profile-flushing defers run even when shape
	// checks fail: os.Exit directly in this body would skip them.
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	batch := flag.Bool("batch", false, "shorthand for -exp batching (batched RX/TX datapath sweep)")
	cluster := flag.Bool("cluster", false, "shorthand for -exp cluster (multi-node ToR-switch scale-out grid)")
	chaos := flag.Bool("chaos", false, "shorthand for -exp chaos (node crash/recovery, port flaps, gray failure)")
	rpcExp := flag.Bool("rpc", false, "shorthand for -exp rpc (serializer-aware RPC chains: depth × load, fan-out, NIC offload)")
	quick := flag.Bool("quick", false, "reduced scale (faster, noisier)")
	list := flag.Bool("list", false, "list experiment ids")
	csvDir := flag.String("csv", "", "also write each report's table to <dir>/<id>.csv")
	traceDir := flag.String("trace", "", "enable per-request tracing on experiments that support it and write each report's artifacts (Chrome trace JSON) to <dir>")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"sweep fan-out width: independent sweep points run on up to N goroutines (1 = serial); reports are byte-identical at any width")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file (inspect with go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file after the runs (alloc_space shows the serialization-path allocators)")
	flag.Parse()

	all := experiments.All()
	if *list {
		ids := make([]string, 0, len(all))
		for id := range all {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return 0
	}

	sc := experiments.Full()
	if *quick {
		sc = experiments.Quick()
	}
	sc.Trace = *traceDir != ""
	sc.Workers = *parallel
	if *batch {
		*exp = "batching"
	}
	if *cluster {
		*exp = "cluster"
	}
	if *chaos {
		*exp = "chaos"
	}
	if *rpcExp {
		*exp = "rpc"
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cf-bench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cf-bench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "cf-bench: wrote CPU profile %s (go tool pprof %s)\n", *cpuprofile, *cpuprofile)
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cf-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush unreached allocations so alloc_space is complete
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "cf-bench:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "cf-bench: wrote allocation profile %s (go tool pprof -sample_index=alloc_space %s)\n", path, path)
		}()
	}

	done, total := 0, 1
	run := func(id string) bool {
		fn, ok := all[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "cf-bench: unknown experiment %q\n", id)
			return false
		}
		done++
		fmt.Fprintf(os.Stderr, "[%d/%d] %s (workers=%d) ...\n", done, total, id, sc.Workers)
		start := time.Now()
		rep := fn(sc)
		fmt.Println(rep)
		fmt.Printf("(%s took %.1fs)\n\n", id, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "cf-bench:", err)
			} else if err := os.WriteFile(
				filepath.Join(*csvDir, rep.ID+".csv"), []byte(rep.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "cf-bench:", err)
			}
		}
		if *traceDir != "" && len(rep.Artifacts) > 0 {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "cf-bench:", err)
			} else {
				names := make([]string, 0, len(rep.Artifacts))
				for name := range rep.Artifacts {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					path := filepath.Join(*traceDir, rep.ID+"-"+name)
					if err := os.WriteFile(path, rep.Artifacts[name], 0o644); err != nil {
						fmt.Fprintln(os.Stderr, "cf-bench:", err)
					} else {
						fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", path)
					}
				}
			}
		}
		return len(rep.Failed()) == 0
	}

	okAll := true
	if *exp == "all" {
		ids := make([]string, 0, len(all))
		for id := range all {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		total = len(ids)
		for _, id := range ids {
			if !run(id) {
				okAll = false
			}
		}
	} else {
		okAll = run(*exp)
	}
	if !okAll {
		return 1
	}
	return 0
}
