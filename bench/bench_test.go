package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"cornflakes/internal/loadgen"
	"cornflakes/internal/sim"
)

// smokeWindow is the simulated window the smoke test runs a workload at:
// long enough for every client to send the 1000 requests the p99 check
// asks for, with margin for Poisson noise, and no longer.
func smokeWindow(w workload) sim.Time {
	rate := w.build(w.inputs(1)).clients[0].RatePerS
	return sim.FromSeconds(1300 / rate)
}

func smoke(t *testing.T, w workload, seed uint64, trace bool) *report {
	t.Helper()
	rep, err := run(options{workload: w.name, seed: seed, trace: trace, measure: smokeWindow(w)})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	for check, ok := range rep.checks {
		if !ok {
			t.Errorf("%s seed %d trace %v: check %s failed", w.name, seed, trace, check)
		}
	}
	return rep
}

func TestWorkloads(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			plain := smoke(t, w, 1, false)
			// A traced run interleaves an untraced and a traced repetition and
			// checks that their fingerprints agree.
			traced := smoke(t, w, 1, true)
			if plain.fingerprint != traced.fingerprint {
				t.Errorf("same seed: fingerprint %016x untraced, %016x traced", plain.fingerprint, traced.fingerprint)
			}
			if other := smoke(t, w, 2, false); other.fingerprint == plain.fingerprint {
				t.Errorf("seeds 1 and 2 share fingerprint %016x", plain.fingerprint)
			}
			if plain.failed != 0 {
				t.Errorf("%d of %d requests failed", plain.failed, plain.attempted)
			}
			for _, m := range append(slices.Clone(endToEnd), perLayer...) {
				if _, ok := traced.metrics[m.name]; !ok {
					t.Errorf("declared metric %s was not computed", m.name)
				}
			}
			if got := oneCall(w, 1); got != plain.fingerprint {
				t.Errorf("one loadgen.RunMany call gives fingerprint %016x, the harness's drive %016x", got, plain.fingerprint)
			}
		})
	}
}

// oneCall runs the workload's window through a single loadgen.RunMany call,
// instead of the harness's separate warmup, window and drain runs, and
// returns the fingerprint.
func oneCall(w workload, seed uint64) uint64 {
	gen := w.inputs(seed)
	t := w.build(gen)
	base := takeBaselines(t)
	var r repResult
	results := loadgen.RunMany(t.configs(seed, smokeWindow(w), &r.issued, nil))
	t.exec.Run()
	r.collect(t, base, results)
	return r.fingerprint
}

// TestDeclaredMetrics checks the program against BENCHMARK.json: the same
// workloads, and the same metric names and units in each set.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range allWorkloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
	same := func(set string, got []struct{ Name, Unit string }, want []metric) {
		var g, w []metric
		for _, m := range got {
			g = append(g, metric{m.Name, m.Unit})
		}
		w = slices.Clone(want)
		byName := func(a, b metric) int { return cmp.Compare(a.name, b.name) }
		slices.SortFunc(g, byName)
		slices.SortFunc(w, byName)
		if !slices.Equal(g, w) {
			t.Errorf("%s: BENCHMARK.json %v, program %v", set, g, w)
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}
