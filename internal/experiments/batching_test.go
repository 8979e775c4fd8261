package experiments

import (
	"os"
	"strings"
	"testing"

	"cornflakes/internal/trace"
)

// TestBatchingSmoke is the CI smoke point: the smallest cell of the
// batching grid — lowest rate, widest burst — run end to end. It stays in
// -short runs (scripts/check.sh) so the batched datapath is always
// exercised even when the full sweep is skipped.
func TestBatchingSmoke(t *testing.T) {
	t.Parallel()
	sc := Quick()
	p := BatchingAt(sc, 16, 40_000)
	if p.Res.Completed == 0 || p.Res.BadResponses != 0 {
		t.Fatalf("completed=%d bad=%d", p.Res.Completed, p.Res.BadResponses)
	}
	if p.Batches == 0 || p.BatchedReqs < p.Res.Completed {
		t.Errorf("batch stats: batches=%d batchedReqs=%d completed=%d",
			p.Batches, p.BatchedReqs, p.Res.Completed)
	}
	if p.TxDoorbells == 0 || p.TxDoorbells > p.TxFrames {
		t.Errorf("doorbells=%d frames=%d: want 0 < doorbells ≤ frames",
			p.TxDoorbells, p.TxFrames)
	}
}

// TestBatchingGoldenAtB1 is the determinism gate for the degenerate burst
// cap: with burst cap 1 the batched configuration must route through the
// legacy datapath untouched, so the golden trace run reproduces the
// checked-in unbatched export byte for byte. If this fails, burst cap 1
// stopped being a no-op and every unbatched calibration is suspect.
func TestBatchingGoldenAtB1(t *testing.T) {
	t.Parallel()
	sc := Scale{StoreKeys: 200, MeasureMs: 1, WarmupMs: 1, SweepPoints: 2, Cores: 1}
	got := TracedOverloadRun(sc, 1, 60_000, trace.Config{SampleEvery: 4, SlowestK: 3}).JSON
	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("read golden file: %v (regenerate with: UPDATE_GOLDEN=1 go test ./internal/experiments -run TestTraceGoldenExport)", err)
	}
	if string(got) != string(want) {
		t.Errorf("Batch=1 trace export diverged from the unbatched golden %s (got %d bytes, want %d): burst cap 1 must be bit-identical to the unbatched datapath",
			goldenTracePath, len(got), len(want))
	}
}

// TestBatchedTraceProperties re-runs the tracer's exactness contracts with
// the batched datapath enabled and sampling off. This pins the satellite-3
// wait-accounting fix at the observability layer: batching moves dispatch
// into one drainer job per burst, and the per-request span timelines must
// still tile to each flow's latency to the picosecond, with the receipt
// aggregate matching the server's accumulator float for float.
func TestBatchedTraceProperties(t *testing.T) {
	t.Parallel()
	run := TracedOverloadRun(Quick(), 8, 150_000, trace.Config{SampleEvery: 1, SlowestK: 8})
	res := run.Res
	retained := run.Tracer.Retained()

	if got, want := uint64(len(retained)), res.Sent; got != want {
		t.Errorf("retained %d flows, loadgen sent %d measured requests", got, want)
	}
	var completed, shed, timedOut, abandoned uint64
	batchedBursts := 0
	for _, f := range retained {
		if msg := tileError(f); msg != "" {
			t.Errorf("req %d: %s", f.Seq, msg)
		}
		switch f.Outcome {
		case trace.OutcomeCompleted:
			completed++
		case trace.OutcomeShed:
			shed++
		case trace.OutcomeTimedOut:
			timedOut++
		default:
			abandoned++
		}
		for _, n := range f.Notes {
			if strings.HasPrefix(n, "batched:") {
				batchedBursts++
			}
		}
	}
	if completed != res.Completed || shed != res.Shed || timedOut != res.TimedOut || abandoned != res.Unresolved {
		t.Errorf("outcomes completed=%d shed=%d timedout=%d abandoned=%d; loadgen %d/%d/%d/%d",
			completed, shed, timedOut, abandoned,
			res.Completed, res.Shed, res.TimedOut, res.Unresolved)
	}
	if batchedBursts == 0 {
		t.Error("no retained flow carries a batch-assembly note; batching did not engage under overload")
	}

	agg, n := run.Tracer.Aggregate()
	if agg != run.RunReceipt || n != run.RunReceipts {
		t.Errorf("tracer aggregate (%d receipts, %.0f cycles) != OnReceipt accumulator (%d, %.0f)",
			n, agg.Total(), run.RunReceipts, run.RunReceipt.Total())
	}
}
