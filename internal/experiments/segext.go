package experiments

import (
	"math/rand/v2"

	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/workloads"
)

// wholeObjGen converts the CDN workload into whole-object list requests
// (one exchange per object) for the segmented stack.
type wholeObjGen struct{ inner *workloads.CDN }

func (g wholeObjGen) Name() string            { return "cdn-whole-object" }
func (g wholeObjGen) Records() []workloads.KV { return g.inner.Records() }
func (g wholeObjGen) Next(r *rand.Rand) workloads.Request {
	q := g.inner.Next(r)
	return workloads.Request{Op: workloads.OpGetList, Keys: q.Keys}
}

// ExtSegment evaluates the §3.2.3 segmentation extension on the CDN trace:
// the paper's prototype fetches large objects as one request per
// jumbo-frame sub-object (Table 2's methodology); with segmentation the
// whole object ships in a single exchange, amortizing per-request fixed
// costs and round trips.
func ExtSegment(sc Scale) *Report {
	r := &Report{
		ID:     "ext-segment",
		Title:  "Extension (§3.2.3): per-sub-object requests vs segmented whole objects (CDN)",
		Header: []string{"transfer mode", "kobj/s", "p99 us"},
	}
	cdn := workloads.NewCDN(sc.StoreKeys, 8000, 256<<10, 180)

	// Arm A: the paper's methodology — one request per sub-object.
	// Arm B: whole objects over the segmentation layer. The two arms are
	// independent, so they run concurrently under the worker budget.
	var perSeg, whole loadgen.Result
	measureA := func() loadgen.Result {
		return kvCapacity(kvOpts{
			Sys: driver.SysCornflakes, Gen: cdn, SmallCache: true, Scale: sc, Seed: 181,
		})
	}
	measureB := func() loadgen.Result {
		return probe(func(rate float64) (loadgen.Result, float64) {
			tb := driver.NewTestbedCfg(nic.MellanoxCX6(), expCacheConfig())
			srv := driver.NewSegmentedKVServer(tb.Server, driver.SysCornflakes)
			srv.Preload(cdn.Records())
			clientSeg := netstack.NewSegmenter(tb.Client.UDP)
			res := loadgen.Run(sc.withWindow(loadgen.Config{
				Eng: tb.Eng, EP: clientSeg,
				Gen:      wholeObjGen{cdn},
				Client:   driver.NewKVClient(tb.Client, driver.SysCornflakes),
				RatePerS: rate,
				Seed:     182,
			}))
			return res, tb.Server.Core.Utilization()
		}).capacity(30_000)
	}
	forEach(sc.workers(), 2, func(i int) {
		if i == 0 {
			perSeg = measureA()
		} else {
			whole = measureB()
		}
	})
	r.Rows = append(r.Rows, []string{
		"per-sub-object (paper)", f2(perSeg.AchievedRps / 1000),
		f1(perSeg.Latency.Quantile(0.99).Microseconds()),
	})
	r.Rows = append(r.Rows, []string{
		"segmented whole object", f2(whole.AchievedRps / 1000),
		f1(whole.Latency.Quantile(0.99).Microseconds()),
	})

	r.AddCheck("segmentation increases whole-object throughput",
		whole.AchievedRps > perSeg.AchievedRps,
		"%.1f vs %.1f kobj/s (%+.0f%%)",
		whole.AchievedRps/1000, perSeg.AchievedRps/1000, pct(whole.AchievedRps, perSeg.AchievedRps))
	r.AddCheck("segmentation cuts whole-object latency (fewer round trips)",
		whole.Latency.Quantile(0.99) < perSeg.Latency.Quantile(0.99),
		"p99 %.1f vs %.1f us",
		whole.Latency.Quantile(0.99).Microseconds(), perSeg.Latency.Quantile(0.99).Microseconds())
	r.Notes = append(r.Notes,
		"per-sub-object: k sequential request/response exchanges per object (§6.1.4)",
		"segmented: one request; the response fragments, zero-copy fields sliced at frame boundaries")
	return r
}
