package experiments

import (
	"fmt"

	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/workloads"
)

// googleGen builds the Google-distribution workload at the experiment
// scale. Store sizes are chosen so values are mostly DRAM-resident
// relative to the shrunken L3.
func googleGen(sc Scale, maxVals int, seed uint64) *workloads.Google {
	keys := 4 * sc.StoreKeys
	return workloads.NewGoogle(keys, maxVals, seed)
}

// Tab1 reproduces Table 1: throughput (krps) for the Google bytes-size
// distribution with lists of 1, 1–4, 1–8 and 1–16 values, across the four
// systems. Paper: Cornflakes within ~2% of Protobuf for 1 and 1–4 values,
// ahead of all libraries for 1–8 and 1–16; Cap'n Proto and FlatBuffers
// trail Protobuf.
func Tab1(sc Scale) *Report {
	r := &Report{
		ID:     "tab1",
		Title:  "Google bytes distribution: max throughput (krps) per system",
		Header: []string{"system", "1 val", "1-4 vals", "1-8 vals", "1-16 vals"},
	}
	shapes := []int{1, 4, 8, 16}
	systems := driver.AllSystems()
	// 4 systems × 4 list shapes = 16 independent capacity probes.
	cells := make([]float64, len(systems)*len(shapes))
	forEach(sc.workers(), len(cells), func(i int) {
		sys, mv := systems[i/len(shapes)], shapes[i%len(shapes)]
		res := kvCapacity(kvOpts{
			Sys: sys, Gen: googleGen(sc, mv, 60), SmallCache: true,
			Scale: sc, Seed: 61,
		})
		cells[i] = res.AchievedRps / 1000
	})
	tput := map[driver.System]map[int]float64{}
	for si, sys := range systems {
		tput[sys] = map[int]float64{}
		row := []string{sys.String()}
		for mi, mv := range shapes {
			krps := cells[si*len(shapes)+mi]
			tput[sys][mv] = krps
			row = append(row, f1(krps))
		}
		r.Rows = append(r.Rows, row)
	}
	cf, pb := tput[driver.SysCornflakes], tput[driver.SysProtobuf]
	r.AddCheck("Cornflakes competitive with Protobuf on small-value lists (1, 1-4)",
		cf[1] > 0.90*pb[1] && cf[4] > 0.90*pb[4],
		"1 val: %.1f vs %.1f; 1-4: %.1f vs %.1f krps", cf[1], pb[1], cf[4], pb[4])
	r.AddCheck("Cornflakes leads for longer lists (1-16)",
		cf[16] >= tput[driver.SysProtobuf][16] &&
			cf[16] >= tput[driver.SysFlatBuffers][16] &&
			cf[16] >= tput[driver.SysCapnProto][16],
		"1-16: CF %.1f, PB %.1f, FB %.1f, CP %.1f krps",
		cf[16], pb[16], tput[driver.SysFlatBuffers][16], tput[driver.SysCapnProto][16])
	r.AddCheck("Cap'n Proto trails Protobuf (as in the paper)",
		tput[driver.SysCapnProto][1] < pb[1],
		"1 val: CP %.1f vs PB %.1f", tput[driver.SysCapnProto][1], pb[1])
	r.Notes = append(r.Notes,
		"paper: CF 844.7/727.2/584.5/441.2 vs PB 852.5/741.9/583.8/402.0 krps")
	return r
}

// Fig6 reproduces Figure 6: the throughput/p99 curve for the Google
// distribution with 1–8 values per list. Cornflakes relies on copying here
// and performs as well as Protobuf.
func Fig6(sc Scale) *Report {
	r := &Report{
		ID:     "fig6",
		Title:  "Google 1-8 values: achieved load (krps) vs p99 (us)",
		Header: []string{"system", "offered krps", "achieved krps", "p99 us"},
	}
	systems := driver.AllSystems()
	type sysRes struct {
		points []loadgen.Result
		top    loadgen.Result
	}
	perSys := make([]sysRes, len(systems))
	forEach(sc.workers(), len(systems), func(i int) {
		o := kvOpts{Sys: systems[i], Gen: googleGen(sc, 8, 60), SmallCache: true, Scale: sc, Seed: 62}
		perSys[i].points, perSys[i].top = o.probe().sweep(sc, loadgen.GeometricRates(100_000, 2_500_000, sc.SweepPoints))
	})
	best := map[driver.System]float64{}
	for i, sys := range systems {
		for _, p := range perSys[i].points {
			r.Rows = append(r.Rows, []string{
				sys.String(), f1(p.OfferedRps / 1000), f1(p.AchievedRps / 1000),
				f1(p.Latency.Quantile(0.99).Microseconds()),
			})
		}
		best[sys] = perSys[i].top.AchievedRps
	}
	r.AddCheck("Cornflakes performs as well as Protobuf on small values",
		best[driver.SysCornflakes] > 0.90*best[driver.SysProtobuf],
		"best: CF %.0f vs PB %.0f rps", best[driver.SysCornflakes], best[driver.SysProtobuf])
	return r
}

// twitterGen builds the Twitter workload at scale.
func twitterGen(sc Scale, seed uint64) *workloads.Twitter {
	return workloads.NewTwitter(8*sc.StoreKeys, seed)
}

// Fig7 reproduces Figure 7: the Twitter cache trace on the custom KV
// store. Paper: Cornflakes achieves 15.4% higher throughput than Protobuf
// at ~53 µs p99 and beats all other libraries.
func Fig7(sc Scale) *Report {
	r := &Report{
		ID:     "fig7",
		Title:  "Twitter cache trace: throughput vs p99 per system",
		Header: []string{"system", "offered krps", "achieved krps", "p99 us"},
	}
	systems := driver.AllSystems()
	type sysRes struct {
		cap    loadgen.Result
		points []loadgen.Result
	}
	perSys := make([]sysRes, len(systems))
	forEach(sc.workers(), len(systems), func(i int) {
		o := kvOpts{Sys: systems[i], Gen: twitterGen(sc, 70), SmallCache: true, Scale: sc, Seed: 71}
		res := kvCapacity(o)
		// The paper presents this result as a throughput/p99 curve; emit a
		// short sweep up to the measured capacity, then the capacity row.
		points, _ := o.probe().sweep(sc, loadgen.GeometricRates(res.AchievedRps/8, res.AchievedRps*0.7, sc.SweepPoints))
		perSys[i] = sysRes{cap: res, points: points}
	})
	best := map[driver.System]float64{}
	for i, sys := range systems {
		res := perSys[i].cap
		best[sys] = res.AchievedRps
		for _, p := range perSys[i].points {
			r.Rows = append(r.Rows, []string{
				sys.String(), f1(p.OfferedRps / 1000), f1(p.AchievedRps / 1000),
				f1(p.Latency.Quantile(0.99).Microseconds()),
			})
		}
		r.Rows = append(r.Rows, []string{
			sys.String(), "capacity", f1(res.AchievedRps / 1000),
			f1(res.Latency.Quantile(0.99).Microseconds()),
		})
	}
	cf, pb := best[driver.SysCornflakes], best[driver.SysProtobuf]
	gain := pct(cf, pb)
	r.AddCheck("Cornflakes beats Protobuf on the mixed-size trace",
		cf > pb, "CF %.0f vs PB %.0f rps (%+.1f%%)", cf, pb, gain)
	r.AddCheck("gain is in the paper's ballpark (paper: +15.4%)",
		gain > 5 && gain < 45, "measured %+.1f%%", gain)
	r.AddCheck("Cornflakes beats every library",
		cf > best[driver.SysFlatBuffers] && cf > best[driver.SysCapnProto],
		"CF %.0f, FB %.0f, CP %.0f rps", cf, best[driver.SysFlatBuffers], best[driver.SysCapnProto])
	r.Notes = append(r.Notes, "~32% of requests touch values >= 512B; 8% puts (§6.1.4)")
	return r
}

// Tab2 reproduces Table 2: the CDN image trace, reported in thousands of
// whole objects per second. Paper: Cornflakes is 97–128% ahead of every
// baseline because every field is at least 1 kB.
func Tab2(sc Scale) *Report {
	r := &Report{
		ID:     "tab2",
		Title:  "CDN image trace: max throughput (kobjects/s) per system",
		Header: []string{"system", "kobj/s"},
	}
	systems := driver.AllSystems()
	caps := make([]loadgen.Result, len(systems))
	forEach(sc.workers(), len(systems), func(i int) {
		gen := workloads.NewCDN(sc.StoreKeys, 8000, 256<<10, 80)
		caps[i] = kvCapacity(kvOpts{Sys: systems[i], Gen: gen, SmallCache: true, Scale: sc, Seed: 81})
	})
	best := map[driver.System]float64{}
	for i, sys := range systems {
		best[sys] = caps[i].AchievedRps
		r.Rows = append(r.Rows, []string{sys.String(), f2(caps[i].AchievedRps / 1000)})
	}
	cf := best[driver.SysCornflakes]
	worstGain, bestGain := 1e18, 0.0
	for _, sys := range []driver.System{driver.SysProtobuf, driver.SysFlatBuffers, driver.SysCapnProto} {
		g := pct(cf, best[sys])
		if g < worstGain {
			worstGain = g
		}
		if g > bestGain {
			bestGain = g
		}
	}
	r.AddCheck("Cornflakes roughly doubles every baseline (paper: +97-128%)",
		worstGain > 50, "gains span %+.0f%% to %+.0f%%", worstGain, bestGain)
	r.Notes = append(r.Notes,
		"objects are vectors of jumbo-frame sub-objects; throughput counts whole objects (§6.1.4)",
		fmt.Sprintf("paper: CF 366.5 vs CP 161.0 / FB 181.2 / PB 186.1 kobj/s"))
	return r
}
