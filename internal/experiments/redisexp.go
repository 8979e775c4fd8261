package experiments

import (
	"fmt"
	"math/rand/v2"

	"cornflakes/internal/loadgen"
	"cornflakes/internal/redis"
	"cornflakes/internal/workloads"
)

// Fig8 reproduces Figure 8: the Twitter trace served by mini-Redis with
// its handwritten RESP serialization vs Cornflakes serialization, both on
// the same UDP stack. Paper: +8.8% throughput at the 59 µs p99 SLO.
func Fig8(sc Scale) *Report {
	r := &Report{
		ID:     "fig8",
		Title:  "Redis on the Twitter trace: max throughput per serialization",
		Header: []string{"serialization", "max krps", "p99 us @ max"},
	}
	modes := []redis.Mode{redis.ModeRESP, redis.ModeCornflakes}
	type modeRes struct {
		cap    loadgen.Result
		points []loadgen.Result
	}
	perMode := make([]modeRes, len(modes))
	forEach(sc.workers(), len(modes), func(i int) {
		o := redisOpts{Mode: modes[i], Gen: twitterGen(sc, 90), Scale: sc, Seed: 91}
		p := o.probe()
		res := p.capacity(100_000)
		// Curve points below capacity, as the paper's figure shows.
		points, _ := p.sweep(sc, loadgen.GeometricRates(res.AchievedRps/8, res.AchievedRps*0.7, sc.SweepPoints/2))
		perMode[i] = modeRes{cap: res, points: points}
	})
	best := map[redis.Mode]float64{}
	for i, mode := range modes {
		res := perMode[i].cap
		best[mode] = res.AchievedRps
		for _, p := range perMode[i].points {
			r.Rows = append(r.Rows, []string{
				mode.String() + " @" + f1(p.OfferedRps/1000) + "k",
				f1(p.AchievedRps / 1000),
				f1(p.Latency.Quantile(0.99).Microseconds()),
			})
		}
		r.Rows = append(r.Rows, []string{
			mode.String() + " capacity", f1(res.AchievedRps / 1000),
			f1(res.Latency.Quantile(0.99).Microseconds()),
		})
	}
	gain := pct(best[redis.ModeCornflakes], best[redis.ModeRESP])
	r.AddCheck("Cornflakes serialization improves Redis throughput",
		best[redis.ModeCornflakes] > best[redis.ModeRESP],
		"CF %.0f vs RESP %.0f rps (%+.1f%%)", best[redis.ModeCornflakes], best[redis.ModeRESP], gain)
	r.AddCheck("gain is single-to-low-double digits (paper: +8.8%)",
		gain > 2 && gain < 40, "measured %+.1f%%", gain)
	return r
}

// tab3Gen builds the YCSB-derived workloads of Table 3: payloads totalling
// 4096 bytes, as one 4096B value (get), two 2048B values via MGET
// (mget-2), or two 2048B list elements via LRANGE (lrange-2).
type tab3Shape struct {
	name string
	gen  workloads.Generator
}

// mgetGen issues 2-key MGETs over a YCSB store.
type mgetGen struct {
	inner *workloads.YCSB
}

func (g *mgetGen) Name() string            { return "ycsb-mget2" }
func (g *mgetGen) Records() []workloads.KV { return g.inner.Records() }
func (g *mgetGen) Next(r *rand.Rand) workloads.Request {
	a := g.inner.Next(r)
	b := g.inner.Next(r)
	return workloads.Request{Op: workloads.OpGetM, Keys: [][]byte{a.Keys[0], b.Keys[0]}}
}

// getGen converts a list workload to single gets.
type getGen struct {
	inner *workloads.YCSB
}

func (g *getGen) Name() string            { return "ycsb-get" }
func (g *getGen) Records() []workloads.KV { return g.inner.Records() }
func (g *getGen) Next(r *rand.Rand) workloads.Request {
	q := g.inner.Next(r)
	return workloads.Request{Op: workloads.OpGet, Keys: q.Keys}
}

// Tab3 reproduces Table 3: GET, MGET-2 and LRANGE-2 in Redis, payloads
// totalling 4096 bytes, comparing serializations. Paper: Cornflakes is
// +15% (get), +15.9% (mget-2) and +40.1% (lrange-2) ahead.
func Tab3(sc Scale) *Report {
	r := &Report{
		ID:     "tab3",
		Title:  "Redis commands on YCSB (4096B payloads): max krps",
		Header: []string{"command", "Redis", "Redis+Cornflakes", "gain"},
	}
	keys := 2 * sc.StoreKeys
	shapes := []tab3Shape{
		{"get", &getGen{workloads.NewYCSB(keys, 4096, 1)}},
		{"mget-2", &mgetGen{workloads.NewYCSB(keys, 2048, 1)}},
		{"lrange-2", workloads.NewYCSB(keys, 2048, 2)},
	}
	// 3 command shapes × 2 serializations = 6 independent capacity probes.
	cells := make([]loadgen.Result, 2*len(shapes))
	forEach(sc.workers(), len(cells), func(i int) {
		mode := redis.ModeRESP
		if i%2 == 1 {
			mode = redis.ModeCornflakes
		}
		o := redisOpts{Mode: mode, Gen: shapes[i/2].gen, Scale: sc, Seed: 92}
		cells[i] = o.probe().capacity(100_000)
	})
	gains := map[string]float64{}
	for si, sh := range shapes {
		resp, cf := cells[2*si], cells[2*si+1]
		g := pct(cf.AchievedRps, resp.AchievedRps)
		gains[sh.name] = g
		r.Rows = append(r.Rows, []string{
			sh.name, f1(resp.AchievedRps / 1000), f1(cf.AchievedRps / 1000),
			fmt.Sprintf("%+.1f%%", g),
		})
	}
	r.AddCheck("Cornflakes wins on every command",
		gains["get"] > 0 && gains["mget-2"] > 0 && gains["lrange-2"] > 0,
		"get %+.1f%%, mget-2 %+.1f%%, lrange-2 %+.1f%%", gains["get"], gains["mget-2"], gains["lrange-2"])
	r.AddCheck("gains are double digit for 4096B payloads (paper: +15-40.1%)",
		gains["get"] > 8, "get %+.1f%%", gains["get"])
	r.Notes = append(r.Notes,
		"paper: get +15%, mget-2 +15.9%, lrange-2 +40.1%")
	return r
}
