package main

import (
	"math/bits"
	"math/rand/v2"
	"time"

	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/workloads"
)

// Span names: the benchmark's calls into the layers below it.
const (
	spanGen   = iota // workloads.Generator.Next
	spanBuild        // loadgen.Client.BuildStep
	spanParse        // loadgen.Client.ResponseID
	spanSend         // loadgen.Endpoint.SendContiguous
	spanRecv         // the endpoint's receive handler
	spanRun          // sim.Runner.RunUntil
	numSpans
)

var spanNames = [numSpans]string{"gen", "build", "parse", "send", "recv", "run"}

// spanStat aggregates every span of one name: count, total and self
// nanoseconds, and a log2 histogram of durations (bucket i holds spans of
// [2^i, 2^(i+1)) ns).
type spanStat struct {
	Count   uint64     `json:"count"`
	TotalNs int64      `json:"total_ns"`
	SelfNs  int64      `json:"self_ns"`
	Log2Ns  [40]uint64 `json:"log2_ns_hist"`
}

// spans records nested host-time spans in memory. Self time is a span's
// duration minus the time its child spans cover. The harness is one
// goroutine, so a plain stack suffices.
type spans struct {
	base  time.Time
	stats [numSpans]spanStat
	stack []openSpan
}

type openSpan struct {
	id           int
	start, child int64
}

func newSpans() *spans { return &spans{base: time.Now()} }

func (s *spans) now() int64 { return int64(time.Since(s.base)) }

func (s *spans) begin(id int) {
	s.stack = append(s.stack, openSpan{id: id, start: s.now()})
}

func (s *spans) end() {
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	d := s.now() - top.start
	st := &s.stats[top.id]
	st.Count++
	st.TotalNs += d
	st.SelfNs += d - top.child
	b := 0
	if d > 0 {
		b = min(bits.Len64(uint64(d))-1, len(st.Log2Ns)-1)
	}
	st.Log2Ns[b]++
	if n := len(s.stack); n > 0 {
		s.stack[n-1].child += d
	}
}

// countingGen counts the requests a generator issues; with sp set it also
// records each draw as a gen span.
type countingGen struct {
	workloads.Generator
	n  *uint64
	sp *spans
}

func (g countingGen) Next(r *rand.Rand) workloads.Request {
	*g.n++
	if g.sp == nil {
		return g.Generator.Next(r)
	}
	g.sp.begin(spanGen)
	req := g.Generator.Next(r)
	g.sp.end()
	return req
}

// tracedClient records build and parse spans around a loadgen.Client.
type tracedClient struct {
	inner loadgen.Client
	sp    *spans
}

func (c tracedClient) Steps(req workloads.Request) int { return c.inner.Steps(req) }

func (c tracedClient) BuildStep(id uint64, req workloads.Request, s int) []byte {
	c.sp.begin(spanBuild)
	p := c.inner.BuildStep(id, req, s)
	c.sp.end()
	return p
}

func (c tracedClient) ResponseID(p []byte) (uint64, error) {
	c.sp.begin(spanParse)
	id, err := c.inner.ResponseID(p)
	c.sp.end()
	return id, err
}

// routingClient forwards loadgen.AttemptRouter: loadgen discovers it by type
// assertion, so a wrapper that hid it would silently change failover
// routing.
type routingClient struct {
	tracedClient
	router loadgen.AttemptRouter
}

func (c routingClient) RouteAttempt(attempt int) { c.router.RouteAttempt(attempt) }

func traceClient(c loadgen.Client, sp *spans) loadgen.Client {
	tc := tracedClient{inner: c, sp: sp}
	if r, ok := c.(loadgen.AttemptRouter); ok {
		return routingClient{tracedClient: tc, router: r}
	}
	return tc
}

// tracedEndpoint records send spans and wraps the receive handler in a
// recv span.
type tracedEndpoint struct {
	inner loadgen.Endpoint
	sp    *spans
}

func (e tracedEndpoint) SendContiguous(payload []byte, sim uint64) error {
	e.sp.begin(spanSend)
	err := e.inner.SendContiguous(payload, sim)
	e.sp.end()
	return err
}

func (e tracedEndpoint) SetRecvHandler(fn func(payload *mem.Buf)) {
	e.inner.SetRecvHandler(func(p *mem.Buf) {
		e.sp.begin(spanRecv)
		fn(p)
		e.sp.end()
	})
}
