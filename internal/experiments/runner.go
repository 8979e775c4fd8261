package experiments

import (
	"math/rand/v2"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/driver"
	"cornflakes/internal/loadgen"
	"cornflakes/internal/nic"
	"cornflakes/internal/redis"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// probe measures one offered-load point on a freshly built testbed and
// returns the result plus the measured server's core utilization. Every
// call builds its own engine, so points are independent and may run
// concurrently (parallel.go). The paper's §6.1 method is then one of the
// three searches below, whatever the server under test.
type probe func(rate float64) (loadgen.Result, float64)

// capacity measures a server's service capacity precisely: it finds a
// stable ~70%-utilization operating point and scales the achieved rate by
// the measured core utilization. Unlike overload probing, this estimator
// is insensitive to queueing noise, so it resolves the few-percent
// differences the ablation experiments report (Fig. 12, Tables 4/5).
func (p probe) capacity(start float64) loadgen.Result {
	rate := start
	var out loadgen.Result
	for i := 0; i < 6; i++ {
		res, u := p(rate)
		if res.Completed == 0 || u <= 0 {
			rate /= 2
			continue
		}
		if u > 0.80 {
			// Too close to saturation: deep RX queues inflate the buffer
			// working set and distort service times. Back well off.
			rate *= 0.3
			continue
		}
		capRps := res.AchievedRps / u
		out = res
		out.AchievedRps = capRps
		out.AchievedGbps = res.AchievedGbps / u
		if u >= 0.25 {
			break // stable mid-utilization estimate
		}
		rate = 0.5 * capRps
	}
	return out
}

// maxTput escalates the offered load until the server saturates (achieved
// falls clearly below offered), then refines around the knee, returning the
// highest achieved result — the paper's "highest achieved throughput across
// all offered loads". The knee matters: past saturation the deep RX queue
// inflates the buffer working set and achieved throughput degrades, so the
// peak sits near (not far past) the capacity.
func (p probe) maxTput(start float64) loadgen.Result {
	rate := start
	lastGood := start / 2
	var best loadgen.Result
	saturated := false
	for i := 0; i < 9; i++ {
		res, _ := p(rate)
		if res.AchievedRps > best.AchievedRps {
			best = res
		}
		if res.AchievedRps < 0.90*res.SentRps {
			saturated = true
			break
		}
		lastGood = rate
		rate *= 2
	}
	if saturated {
		// Probe between the last underloaded rate and the saturating one.
		for _, r := range loadgen.GeometricRates(lastGood*1.15, rate*0.85, 3) {
			if res, _ := p(r); res.AchievedRps > best.AchievedRps {
				best = res
			}
		}
	}
	return best
}

// sweep measures every rate of a ladder, fanned across the scale's worker
// budget, and returns the points in ladder order plus the best per the
// paper's reporting rule: the highest achieved load among points where
// achieved ≥ 95% of offered. Selection runs over the ordered slice, so the
// result is identical at any width.
func (p probe) sweep(sc Scale, rates []float64) (points []loadgen.Result, best loadgen.Result) {
	points = make([]loadgen.Result, len(rates))
	forEach(sc.workers(), len(rates), func(i int) {
		points[i], _ = p(rates[i])
	})
	for _, res := range points {
		if res.AchievedRps >= 0.95*res.OfferedRps && res.AchievedRps > best.AchievedRps {
			best = res
		}
	}
	// If nothing met the 95% rule (all overloaded), report the highest
	// achieved load like the paper's "highest achieved throughput across
	// all offered loads".
	if best.AchievedRps == 0 {
		for _, res := range points {
			if res.AchievedRps > best.AchievedRps {
				best = res
			}
		}
	}
	return points, best
}

// capacityOK records a failing check when the capacity estimator found no
// usable operating point; experiments that scale their ladders from the
// estimate return early when it reports false.
func capacityOK(r *Report, capRps float64) bool {
	if capRps <= 0 {
		r.AddCheck("capacity: estimator produced a usable operating point", false,
			"capacity estimate %.0f rps", capRps)
		return false
	}
	return true
}

// window returns the scale's warmup and measurement windows.
func (sc Scale) window() (warmup, measure sim.Time) {
	return sim.Time(sc.WarmupMs) * sim.Millisecond, sim.Time(sc.MeasureMs) * sim.Millisecond
}

// withWindow returns cfg with its warmup and measurement windows set from
// the scale.
func (sc Scale) withWindow(cfg loadgen.Config) loadgen.Config {
	cfg.Warmup, cfg.Measure = sc.window()
	return cfg
}

// kvOpts configures one KV-server measurement.
type kvOpts struct {
	Sys driver.System
	Gen workloads.Generator
	// Threshold overrides the zero-copy threshold when ThresholdSet is
	// true (0 is a meaningful value: scatter-gather everything).
	Threshold    int
	ThresholdSet bool
	UseSGArray   bool
	Profile      nic.Profile
	// SmallCache shrinks the modelled L3 (see expCacheConfig) so that
	// scaled-down stores stay DRAM-resident like the paper's.
	SmallCache bool
	// Batch, when ≥ 1, sets the server's burst cap
	// (KVServer.EnableBatching): each drain of its RX ring serves up to
	// Batch requests. 0 and 1 both keep the default one-request drain; the
	// determinism gate pins a run at 1 against the default golden trace.
	Batch int
	Scale Scale
	Seed  uint64
}

func (o kvOpts) profile() nic.Profile {
	if o.Profile.Name == "" {
		return nic.MellanoxCX6()
	}
	return o.Profile
}

// newKVTestbed builds the testbed, server and client for the options.
func newKVTestbed(o kvOpts) (*driver.Testbed, *driver.KVServer, *driver.KVClient) {
	cacheCfg := cachesim.DefaultConfig()
	if o.SmallCache {
		cacheCfg = expCacheConfig()
	}
	tb := driver.NewTestbedCfg(o.profile(), cacheCfg)
	srv := driver.NewKVServer(tb.Server, o.Sys)
	if o.ThresholdSet {
		tb.Server.Ctx.Threshold = o.Threshold
	}
	srv.UseSGArray = o.UseSGArray
	if o.Batch > 0 {
		srv.EnableBatching(o.Batch)
	}
	srv.Preload(o.Gen.Records())
	return tb, srv, driver.NewKVClient(tb.Client, o.Sys)
}

// probe runs one load point of the KV configuration.
func (o kvOpts) probe() probe {
	return func(rate float64) (loadgen.Result, float64) {
		tb, _, client := newKVTestbed(o)
		res := loadgen.Run(o.Scale.withWindow(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP,
			Gen: o.Gen, Client: client,
			RatePerS: rate,
			Seed:     o.Seed + 1,
		}))
		return res, tb.Server.Core.Utilization()
	}
}

// kvCapacity is the capacity of a KV configuration.
func kvCapacity(o kvOpts) loadgen.Result { return o.probe().capacity(100_000) }

type redisOpts struct {
	Mode  redis.Mode
	Gen   workloads.Generator
	Scale Scale
	Seed  uint64
}

// probe runs one load point of the Redis configuration.
func (o redisOpts) probe() probe {
	return func(rate float64) (loadgen.Result, float64) {
		tb := driver.NewTestbed(nic.MellanoxCX6())
		srv := driver.NewRedisServer(tb.Server, o.Mode)
		srv.Preload(o.Gen.Records())
		res := loadgen.Run(o.Scale.withWindow(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP,
			Gen: o.Gen, Client: driver.NewRedisClient(tb.Client, o.Mode),
			RatePerS: rate,
			Seed:     o.Seed + 2,
		}))
		return res, tb.Server.Core.Utilization()
	}
}

type echoOpts struct {
	Mode      driver.EchoMode
	Sys       driver.System
	FieldSize int
	NumFields int
	Scale     Scale
	Seed      uint64
}

// probe runs one load point of the echo configuration.
func (o echoOpts) probe() probe {
	return func(rate float64) (loadgen.Result, float64) {
		tb := driver.NewTestbed(nic.MellanoxCX6())
		driver.NewEchoServer(tb.Server, o.Mode, o.Sys, o.FieldSize, o.NumFields)
		client := &driver.EchoClient{Mode: o.Mode, Sys: o.Sys, N: tb.Client, FieldSize: o.FieldSize, NumFields: o.NumFields}
		res := loadgen.Run(o.Scale.withWindow(loadgen.Config{
			Eng: tb.Eng, EP: tb.Client.UDP,
			Gen: nopGen{}, Client: client,
			RatePerS: rate,
			Seed:     o.Seed + 3,
		}))
		return res, tb.Server.Core.Utilization()
	}
}

// nopGen feeds the echo client, which ignores the request shape.
type nopGen struct{}

func (nopGen) Name() string            { return "echo" }
func (nopGen) Records() []workloads.KV { return nil }
func (nopGen) Next(*rand.Rand) workloads.Request {
	return workloads.Request{}
}
