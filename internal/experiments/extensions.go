package experiments

import (
	"fmt"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/core"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/workloads"
)

// Beyond the paper's evaluation, two additional ablations cover design
// choices the paper calls out in passing, plus the §7 dynamic-threshold
// extension implemented in this repository.

// ExtArena ablates the arena allocator behind CFPtr's copied vectors.
// Table 1's footnote attributes part of Cornflakes' 1–16-value win to
// "arena allocation for vectors inside generated data structures"; this
// experiment measures that choice directly by switching the copy path to
// per-field heap allocations.
func ExtArena(sc Scale) *Report {
	r := &Report{
		ID:     "ext-arena",
		Title:  "Ablation: arena vs heap allocation for copied CFPtr vectors (krps)",
		Header: []string{"list shape", "arena", "heap", "arena gain"},
	}
	shapes := []int{4, 16}
	measureShape := func(mv int, disableArena bool) float64 {
		gen := googleGen(sc, mv, 170)
		cfg := expCacheConfig()
		return probe(func(rate float64) (loadgen.Result, float64) {
			// Rebuild per rate for a clean cache.
			tb := driver.NewTestbedCfg(nic.MellanoxCX6(), cfg)
			srv := driver.NewKVServer(tb.Server, driver.SysCornflakes)
			tb.Server.Ctx.DisableArena = disableArena
			srv.Preload(gen.Records())
			res := loadgen.Run(sc.withWindow(loadgen.Config{
				Eng: tb.Eng, EP: tb.Client.UDP,
				Gen: gen, Client: driver.NewKVClient(tb.Client, driver.SysCornflakes),
				RatePerS: rate,
				Seed:     171,
			}))
			return res, tb.Server.Core.Utilization()
		}).capacity(100_000).AchievedRps
	}
	// 2 list shapes × {arena, heap} = 4 independent capacity probes.
	cells := make([]float64, 2*len(shapes))
	forEach(sc.workers(), len(cells), func(i int) {
		cells[i] = measureShape(shapes[i/2], i%2 == 1)
	})
	gains := map[int]float64{}
	for si, mv := range shapes {
		arena, heap := cells[2*si], cells[2*si+1]
		g := pct(arena, heap)
		gains[mv] = g
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("1-%d vals", mv), f1(arena / 1000), f1(heap / 1000),
			fmt.Sprintf("%+.1f%%", g),
		})
	}
	r.AddCheck("arena allocation pays on copy-heavy lists",
		gains[4] > 0 && gains[16] > 0,
		"1-4: %+.1f%%, 1-16: %+.1f%%", gains[4], gains[16])
	r.AddCheck("the win grows with list length (more vectors per request)",
		gains[16] >= gains[4]*0.8,
		"1-4: %+.1f%% vs 1-16: %+.1f%%", gains[4], gains[16])
	r.Notes = append(r.Notes,
		"Table 1 footnote: part of Cornflakes' long-list win comes from arena allocation")
	return r
}

// ExtAdaptive exercises the §7 dynamic-threshold extension: a server with
// a misconfigured threshold self-corrects toward the empirical crossover
// while serving traffic, on both cold and warm working sets.
func ExtAdaptive(sc Scale) *Report {
	r := &Report{
		ID:     "ext-adaptive",
		Title:  "Extension (§7): adaptive zero-copy threshold convergence",
		Header: []string{"scenario", "start", "converged", "adjustments"},
	}
	run := func(name string, start, keys, l3 int) ([]string, int) {
		cfg := cachesim.DefaultConfig()
		cfg.L3.Size = l3
		gen := workloads.NewYCSB(keys, 512, 2)
		tb := driver.NewTestbedCfg(nic.MellanoxCX6(), cfg)
		srv := driver.NewKVServer(tb.Server, driver.SysCornflakes)
		tb.Server.Ctx.Threshold = start
		srv.Adaptive = core.NewAdaptiveThreshold(tb.Server.Ctx)
		srv.Preload(gen.Records())
		w, m := sc.window()
		loadgen.Run(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP,
			Gen: gen, Client: driver.NewKVClient(tb.Client, driver.SysCornflakes),
			RatePerS: 300_000,
			Warmup:   w,
			Measure:  3 * m,
			Seed:     172,
		})
		row := []string{
			name, fmt.Sprintf("%d", start), fmt.Sprintf("%d", tb.Server.Ctx.Threshold),
			fmt.Sprintf("%d", srv.Adaptive.Adjustments),
		}
		return row, tb.Server.Ctx.Threshold
	}
	rows := make([][]string, 2)
	converged := make([]int, 2)
	forEach(sc.workers(), 2, func(i int) {
		if i == 0 {
			rows[i], converged[i] = run("cold store, start 64B", 64, 8*sc.StoreKeys, 512<<10)
		} else {
			rows[i], converged[i] = run("warm store, start 4096B", 4096, sc.StoreKeys/2, 16<<20)
		}
	})
	r.Rows = append(r.Rows, rows...)
	cold, warm := converged[0], converged[1]
	r.AddCheck("cold-metadata threshold rises from a too-low start",
		cold >= 256, "64 -> %d", cold)
	r.AddCheck("warm-metadata threshold falls from a too-high start",
		warm <= 2048, "4096 -> %d", warm)
	r.Notes = append(r.Notes,
		"the controller observes metadata miss rates between requests (§3.2.1-compatible)")
	return r
}
