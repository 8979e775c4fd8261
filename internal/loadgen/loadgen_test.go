package loadgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"cornflakes/internal/cachesim"
	"cornflakes/internal/costmodel"
	"cornflakes/internal/mem"
	"cornflakes/internal/netstack"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
	"cornflakes/internal/workloads"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i) * sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got < 49*sim.Microsecond || got > 52*sim.Microsecond {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Quantile(0.99); got < 98*sim.Microsecond || got > 100*sim.Microsecond {
		t.Errorf("p99 = %v", got)
	}
	if h.Max() != 100*sim.Microsecond {
		t.Errorf("max = %v", h.Max())
	}
	if got := h.Mean(); got != sim.Time(50500)*sim.Nanosecond {
		t.Errorf("mean = %v", got)
	}
	if h.String() == "" {
		t.Error("empty String")
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile nonzero")
	}
	h.Record(-5)
	if h.Count() != 1 {
		t.Error("negative sample dropped")
	}
	h.Record(30 * sim.Millisecond) // overflow bucket
	if got := h.Quantile(1.0); got != 30*sim.Millisecond {
		t.Errorf("overflow quantile = %v", got)
	}
	h.Record(2 * sim.Second)
	if h.Quantile(2.0) != 2*sim.Second { // clamped p
		t.Error("p>1 not clamped")
	}
	h.Quantile(-1) // must not panic
}

func TestHistogramQuantileOverflowAndSingles(t *testing.T) {
	// Single sample: every quantile is that sample's bucket edge (or the
	// max, once it lands in the overflow bucket).
	h := NewHistogram()
	h.Record(3 * sim.Microsecond)
	for _, p := range []float64{0.01, 0.5, 0.99, 1.0} {
		got := h.Quantile(p)
		if got < 3*sim.Microsecond || got > 3*sim.Microsecond+histBucketSize {
			t.Errorf("single-sample Quantile(%v) = %v", p, got)
		}
	}

	// Mixed in-range and overflow samples: low quantiles resolve from the
	// buckets, while any quantile landing in the overflow tail reports the
	// observed max rather than a fictitious bucket edge.
	h = NewHistogram()
	for i := 0; i < 90; i++ {
		h.Record(10 * sim.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(20 * sim.Millisecond) // past the 16.384 ms bucket range
	}
	if got := h.Quantile(0.5); got > 11*sim.Microsecond {
		t.Errorf("p50 = %v, want ~10us from the bucketed mass", got)
	}
	if got := h.Quantile(0.99); got != 20*sim.Millisecond {
		t.Errorf("p99 = %v, want the observed max for overflow samples", got)
	}
	if got := h.Quantile(1.0); got != 20*sim.Millisecond {
		t.Errorf("p100 = %v, want observed max", got)
	}

	// All samples in overflow: every quantile is the max.
	h = NewHistogram()
	h.Record(17 * sim.Millisecond)
	h.Record(25 * sim.Millisecond)
	if got := h.Quantile(0.5); got != 25*sim.Millisecond {
		t.Errorf("all-overflow p50 = %v, want max", got)
	}
}

// echoFixture wires an echo server with a fixed service time to a client.
type echoFixture struct {
	eng     *sim.Engine
	client  *netstack.UDP
	server  *netstack.UDP
	core    *sim.Core
	service sim.Time
}

func newEchoFixture(service sim.Time) *echoFixture {
	eng := sim.NewEngine()
	pc, ps := nic.Link(eng, nic.MellanoxCX6(), nic.MellanoxCX6(), sim.FromNanos(1000))
	cAlloc, sAlloc := mem.NewAllocator(), mem.NewAllocator()
	cMeter := costmodel.NewMeter(costmodel.DefaultCPU(), nil) // a load generator's: no cache model
	sMeter := costmodel.NewMeter(costmodel.DefaultCPU(), cachesim.New(cachesim.DefaultConfig()))
	f := &echoFixture{
		eng:     eng,
		client:  netstack.NewUDP(eng, pc, cAlloc, cMeter),
		server:  netstack.NewUDP(eng, ps, sAlloc, sMeter),
		core:    sim.NewCore(eng),
		service: service,
	}
	var q *sim.Queue[*mem.Buf]
	q = sim.NewQueue[*mem.Buf](f.core, 4096, func() sim.Time {
		p := q.Pop(0)
		defer p.DecRef()
		data := append([]byte(nil), p.Bytes()...)
		f.server.SendContiguous(data, mem.UnpinnedSimAddr(data))
		return f.service
	})
	f.server.SetRecvHandler(func(p *mem.Buf) {
		if !q.Push(p) {
			p.DecRef()
		}
	})
	return f
}

// idClient is a trivial single-step client: 8-byte id + padding.
type idClient struct{ pad int }

func (c idClient) Steps(workloads.Request) int { return 1 }
func (c idClient) BuildStep(id uint64, _ workloads.Request, _ int) []byte {
	b := make([]byte, 8+c.pad)
	wire.PutU64(b, id)
	return b
}
func (c idClient) ResponseID(p []byte) (uint64, error) {
	if len(p) < 8 {
		return 0, fmt.Errorf("short response")
	}
	return wire.GetU64(p), nil
}

// genConst issues one fixed request shape.
type genConst struct{}

func (genConst) Name() string                      { return "const" }
func (genConst) Records() []workloads.KV           { return nil }
func (genConst) Next(*rand.Rand) workloads.Request { return workloads.Request{Op: workloads.OpGet} }

func TestRunUnderload(t *testing.T) {
	f := newEchoFixture(1 * sim.Microsecond) // capacity 1M rps
	res := Run(Config{
		Eng: f.eng, EP: f.client, Gen: genConst{}, Client: idClient{pad: 56},
		RatePerS: 50_000, Warmup: 2 * sim.Millisecond, Measure: 20 * sim.Millisecond, Seed: 1,
	})
	if math.Abs(res.AchievedRps-res.OfferedRps)/res.OfferedRps > 0.10 {
		t.Errorf("underload: achieved %v vs offered %v", res.AchievedRps, res.OfferedRps)
	}
	if res.BadResponses != 0 {
		t.Errorf("bad responses: %d", res.BadResponses)
	}
	// RTT should be small: ~2µs propagation + service + wire.
	if p50 := res.Latency.Quantile(0.5); p50 > 20*sim.Microsecond {
		t.Errorf("p50 = %v, too high for underload", p50)
	}
}

func TestRunOverload(t *testing.T) {
	f := newEchoFixture(10 * sim.Microsecond) // capacity 100k rps
	res := Run(Config{
		Eng: f.eng, EP: f.client, Gen: genConst{}, Client: idClient{pad: 56},
		RatePerS: 400_000, Warmup: 2 * sim.Millisecond, Measure: 20 * sim.Millisecond, Seed: 2,
	})
	// Achieved must saturate near the service capacity, far below offered.
	if res.AchievedRps > 130_000 {
		t.Errorf("achieved %v exceeds server capacity", res.AchievedRps)
	}
	if res.AchievedRps < 60_000 {
		t.Errorf("achieved %v too low (expected ~100k)", res.AchievedRps)
	}
	// Overload must show in the tail.
	if res.Latency.Quantile(0.99) < 50*sim.Microsecond {
		t.Errorf("p99 = %v, expected congestion", res.Latency.Quantile(0.99))
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		f := newEchoFixture(2 * sim.Microsecond)
		return Run(Config{
			Eng: f.eng, EP: f.client, Gen: genConst{}, Client: idClient{pad: 24},
			RatePerS: 100_000, Warmup: sim.Millisecond, Measure: 10 * sim.Millisecond, Seed: 7,
		})
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Latency.Quantile(0.99) != b.Latency.Quantile(0.99) {
		t.Errorf("runs differ: %+v vs %+v", a.Completed, b.Completed)
	}
}

// stepClient is a three-step client: 8-byte id, then the step index.
type stepClient struct{}

func (stepClient) Steps(workloads.Request) int { return 3 }
func (stepClient) BuildStep(id uint64, _ workloads.Request, s int) []byte {
	b := make([]byte, 64)
	wire.PutU64(b, id)
	b[8] = byte(s)
	return b
}
func (stepClient) ResponseID(p []byte) (uint64, error) { return idClient{}.ResponseID(p) }

// AchievedGbps counts the response bytes of completed flows only: a
// multi-step flow whose last step is never answered contributes nothing,
// however many of its earlier steps were.
func TestGbpsCountsCompletedFlowsOnly(t *testing.T) {
	run := func(lastAnswered bool) Result {
		f := newEchoFixture(1 * sim.Microsecond)
		f.server.SetRecvHandler(func(p *mem.Buf) {
			defer p.DecRef()
			if p.Bytes()[8] == 2 && !lastAnswered {
				return
			}
			data := append([]byte(nil), p.Bytes()...)
			f.server.SendContiguous(data, mem.UnpinnedSimAddr(data))
		})
		return Run(Config{
			Eng: f.eng, EP: f.client, Gen: genConst{}, Client: stepClient{},
			RatePerS: 50_000, Warmup: sim.Millisecond, Measure: 5 * sim.Millisecond, Seed: 3,
		})
	}
	res := run(false)
	if res.Sent == 0 || res.Completed != 0 {
		t.Fatalf("sent=%d completed=%d, want flows sent and none completed", res.Sent, res.Completed)
	}
	if res.AchievedGbps != 0 {
		t.Errorf("AchievedGbps = %v with no completed flow", res.AchievedGbps)
	}
	res = run(true)
	want := float64(res.Completed*3*64) * 8 / (5 * sim.Millisecond).Seconds() / 1e9
	if res.Completed == 0 || res.AchievedGbps != want {
		t.Errorf("completed=%d AchievedGbps=%v, want all three steps counted: %v",
			res.Completed, res.AchievedGbps, want)
	}
}

func TestGeometricRates(t *testing.T) {
	rates := GeometricRates(100, 1600, 5)
	if len(rates) != 5 || rates[0] != 100 {
		t.Fatalf("rates = %v", rates)
	}
	if math.Abs(rates[4]-1600) > 1 {
		t.Errorf("last rate = %v", rates[4])
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Error("rates not increasing")
		}
	}
	if got := GeometricRates(1, 10, 1); len(got) != 1 || got[0] != 10 {
		t.Errorf("degenerate ladder = %v", got)
	}
}
