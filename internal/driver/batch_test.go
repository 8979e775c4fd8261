package driver

import (
	"fmt"
	"testing"

	"cornflakes/internal/loadgen"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/workloads"
)

// runKVBatched is runKV with the batched datapath enabled at the given
// burst cap.
func runKVBatched(t *testing.T, burst int, rate float64) (loadgen.Result, *KVServer) {
	t.Helper()
	gen := workloads.NewYCSB(200, 1024, 1)
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewKVServer(tb.Server, SysCornflakes)
	srv.EnableBatching(burst)
	srv.Preload(gen.Records())
	res := loadgen.Run(loadgen.Config{
		Eng: tb.Eng, EP: tb.Client.UDP,
		Gen: gen, Client: NewKVClient(tb.Client, SysCornflakes),
		RatePerS: rate, Warmup: sim.Millisecond, Measure: 10 * sim.Millisecond, Seed: 42,
	})
	return res, srv
}

// TestBatchedEndToEnd: the batched datapath serves a mixed load correctly —
// every response intact, no server errors, no leaked batches.
func TestBatchedEndToEnd(t *testing.T) {
	res, srv := runKVBatched(t, 16, 100_000)
	if srv.Errors != 0 || res.BadResponses != 0 {
		t.Errorf("errors=%d bad=%d", srv.Errors, res.BadResponses)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if srv.Batches == 0 || srv.BatchedReqs != srv.Handled {
		t.Errorf("batch stats: batches=%d batchedReqs=%d handled=%d",
			srv.Batches, srv.BatchedReqs, srv.Handled)
	}
	if d := srv.PendingDepth(); d != 0 {
		t.Errorf("%d requests stranded in the RX ring after drain", d)
	}
}

// TestBatchedLowLoadParity: at low load the adaptive burst collapses to 1,
// so the batched datapath's latency must track the unbatched baseline
// closely (the ≤5% p99 budget the batching experiment enforces; here we
// pin the mechanism — bursts of one — plus a generous latency bound).
func TestBatchedLowLoadParity(t *testing.T) {
	const rate = 20_000 // ~2% of single-core capacity: no backlog forms
	base, _ := runKV(t, SysCornflakes, workloads.NewYCSB(200, 1024, 1), rate)
	res, srv := runKVBatched(t, 16, rate)
	if srv.MaxBatch > 2 {
		t.Errorf("MaxBatch = %d at low load, want bursts to collapse toward 1", srv.MaxBatch)
	}
	bp, rp := base.Latency.Quantile(0.99), res.Latency.Quantile(0.99)
	if rp > bp*105/100 {
		t.Errorf("low-load p99: batched %v vs unbatched %v (>5%% penalty)", rp, bp)
	}
}

// TestBatchedAdaptiveGrowsUnderLoad: past capacity the backlog drives the
// burst up toward the cap.
func TestBatchedAdaptiveGrowsUnderLoad(t *testing.T) {
	_, srv := runKVBatched(t, 16, 10_000_000) // far past single-core capacity
	if srv.MaxBatch < 8 {
		t.Errorf("MaxBatch = %d under heavy overload, want the burst to grow toward 16", srv.MaxBatch)
	}
	if srv.Batches == 0 || srv.BatchedReqs/srv.Batches < 2 {
		t.Errorf("mean burst %.1f under overload, want > 2",
			float64(srv.BatchedReqs)/float64(srv.Batches))
	}
}

// blockedArrivals are the instants blockedBacklog delivers its requests at.
var blockedArrivals = []sim.Time{2 * sim.Microsecond, 3 * sim.Microsecond, 4 * sim.Microsecond}

// blockedBacklog builds a testbed whose server core is held by a dummy
// 10µs job from t=1µs while three requests arrive at blockedArrivals,
// handed to the server's payload handler directly so arrival instants are
// exact.
func blockedBacklog(t *testing.T, burst int) (*Testbed, *KVServer) {
	t.Helper()
	tb := NewTestbed(nic.MellanoxCX6())
	srv := NewKVServer(tb.Server, SysCornflakes)
	srv.EnableBatching(burst)
	srv.Preload(workloads.NewYCSB(8, 256, 1).Records())

	block := 10 * sim.Microsecond
	tb.Eng.At(1*sim.Microsecond, func() {
		tb.Server.Core.Submit(func() sim.Time { return block })
	})
	cl := NewKVClient(tb.Client, SysCornflakes)
	key := workloads.NewYCSB(8, 256, 1).Records()[0].Key
	mkReq := func() *mem.Buf {
		req := cl.BuildStep(7, workloads.Request{Op: workloads.OpGet, Keys: [][]byte{key}}, 0)
		b := tb.Server.Alloc.Alloc(len(req))
		copy(b.Bytes(), req)
		return b
	}
	for _, at := range blockedArrivals {
		tb.Eng.At(at, func() { srv.onPayload(mkReq()) })
	}
	return tb, srv
}

// TestPendingDepthCountsRequests: PendingDepth is the number of requests
// waiting in the RX ring — three here, parked behind the blocked core —
// never the drain armed on the core (sim's TestQueueArmsOneDrain pins that
// a backlog arms exactly one).
func TestPendingDepthCountsRequests(t *testing.T) {
	for _, burst := range []int{1, 16} {
		t.Run(fmt.Sprintf("burst=%d", burst), func(t *testing.T) {
			tb, srv := blockedBacklog(t, burst)
			var depth int
			tb.Eng.At(5*sim.Microsecond, func() { depth = srv.PendingDepth() })
			tb.Eng.Run()
			if depth != 3 {
				t.Errorf("PendingDepth = %d behind the blocked core, want the 3 waiting requests", depth)
			}
			if d := srv.PendingDepth(); d != 0 || srv.Handled != 3 {
				t.Errorf("after the run: PendingDepth = %d, Handled = %d; want 0 and 3", d, srv.Handled)
			}
		})
	}
}

// TestIntraBatchWaitAccounted pins intra-burst wait accounting: when one
// drain serves several requests, requests 2..B wait not just for the batch
// dispatch but for the members ahead of them, and that wait must land in
// Core.QueueWait. The scenario is fully deterministic: the core is blocked
// by a dummy job while three requests arrive, then one burst serves all
// three.
func TestIntraBatchWaitAccounted(t *testing.T) {
	tb, srv := blockedBacklog(t, 16)
	tb.Eng.Run()
	enq := blockedArrivals

	if srv.Handled != 3 {
		t.Fatalf("handled %d requests, want 3", srv.Handled)
	}
	if srv.Batches != 1 || srv.MaxBatch != 3 {
		t.Fatalf("batches=%d maxBatch=%d, want one burst of 3", srv.Batches, srv.MaxBatch)
	}
	// Dispatch happens when the blocking job finishes at t=11µs. The
	// dispatch-only wait (what the pre-fix accounting would record at best)
	// is Σ(t0 − enq_i); the intra-batch fix adds the service of the members
	// ahead of each request, so QueueWait must strictly exceed it.
	t0 := 11 * sim.Microsecond
	dispatchOnly := sim.Time(0)
	for _, e := range enq {
		dispatchOnly += t0 - e
	}
	got := tb.Server.Core.QueueWait
	if got <= dispatchOnly {
		t.Errorf("QueueWait = %v, want > %v (dispatch-only): intra-batch waits missing", got, dispatchOnly)
	}
	if tb.Server.Core.MaxQueueWait < t0-enq[0] {
		t.Errorf("MaxQueueWait = %v, want ≥ first request's dispatch wait %v",
			tb.Server.Core.MaxQueueWait, t0-enq[0])
	}
}
