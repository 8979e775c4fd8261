package experiments

import (
	"fmt"

	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/workloads"
)

// ExtMulticore is the "full multicore implementation" the paper leaves to
// future work (§6.6): the complete end-to-end KV application — not just
// the copy/SG microbenchmark of Figure 13 — running on 1–8 cores with a
// key-sharded store, private L1/L2 per core, a shared L3 and one shared
// NIC port. It verifies the paper's extrapolation claim: end-to-end
// Cornflakes throughput scales near-linearly until the NIC binds.
func ExtMulticore(sc Scale) *Report {
	r := &Report{
		ID:     "ext-multicore",
		Title:  "Extension (§6.6): end-to-end multicore KV server (Twitter trace)",
		Header: []string{"cores", "max krps", "scaling"},
	}
	measure := func(nCores int) float64 {
		gen := workloads.NewTwitter(8*sc.StoreKeys, 190)
		// Capacity via the utilization method, generalized to K cores.
		return probe(func(rate float64) (loadgen.Result, float64) {
			tb := driver.NewCoreShards(driver.NewTestbedCfg(nic.MellanoxCX6(), expCacheConfig()), nCores, driver.SysCornflakes)
			tb.Preload(gen.Records(), 1)
			res := loadgen.Run(sc.withWindow(loadgen.Config{
				Eng: tb.Eng, EP: tb.Clients[0].UDP, Gen: gen,
				Client:   tb.NewClient(0, driver.SysCornflakes, 1),
				RatePerS: rate,
				Seed:     191,
			}))
			u := 0.0 // mean utilization over the cores
			for _, s := range tb.Servers {
				u += s.N.Core.Utilization()
			}
			return res, u / float64(len(tb.Servers))
		}).capacity(150_000 * float64(nCores)).AchievedRps
	}

	cores := []int{1, 2, 4}
	if sc.Cores >= 8 {
		cores = append(cores, 8)
	}
	perCore := make([]float64, len(cores))
	forEach(sc.workers(), len(cores), func(i int) {
		perCore[i] = measure(cores[i])
	})
	caps := map[int]float64{}
	for i, k := range cores {
		caps[k] = perCore[i]
	}
	for _, k := range cores {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", k), f1(caps[k] / 1000),
			fmt.Sprintf("x%.2f", caps[k]/caps[1]),
		})
	}
	r.AddCheck("end-to-end throughput scales near-linearly to 4 cores (paper's §6.6 extrapolation)",
		caps[4] > 3.2*caps[1],
		"1 core %.0f, 4 cores %.0f rps (x%.2f)", caps[1], caps[4], caps[4]/caps[1])
	r.AddCheck("2-core step is clean",
		caps[2] > 1.7*caps[1],
		"x%.2f", caps[2]/caps[1])
	r.Notes = append(r.Notes,
		"key-sharded stores, private L1/L2, shared L3, one shared 100Gbps port",
		"the paper's §6.6 microbenchmark scales linearly; this verifies the same for the full application")
	return r
}
