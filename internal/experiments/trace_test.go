package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cornflakes/internal/trace"
)

// goldenTraceRun is a tiny, fully deterministic traced overload run: fixed
// scale, fixed rate (not derived from a capacity estimate), fixed sampling.
// Everything downstream — event order, timestamps, gauge samples — is a
// pure function of this configuration, so its export can be pinned byte
// for byte.
func goldenTraceRun() TracedRun {
	sc := Scale{StoreKeys: 200, MeasureMs: 1, WarmupMs: 1, SweepPoints: 2, Cores: 1}
	return TracedOverloadRun(sc, 0, 60_000, trace.Config{SampleEvery: 4, SlowestK: 3})
}

const goldenTracePath = "testdata/trace_golden.json"

// The Chrome trace export must be byte-stable: same run, same bytes. This
// pins the writer's determinism (no map iteration, integer-only timestamp
// math) and the whole traced pipeline's reproducibility at once.
func TestTraceGoldenExport(t *testing.T) {
	t.Parallel()
	got := goldenTraceRun().JSON
	if !json.Valid(got) {
		t.Fatal("export is not valid JSON")
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenTracePath, len(got))
		return
	}
	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("read golden file: %v (regenerate with: UPDATE_GOLDEN=1 go test ./internal/experiments -run TestTraceGoldenExport)", err)
	}
	if string(got) != string(want) {
		t.Errorf("trace export diverged from %s (got %d bytes, want %d); if the change is intentional, regenerate with:\n"+
			"  UPDATE_GOLDEN=1 go test ./internal/experiments -run TestTraceGoldenExport",
			goldenTracePath, len(got), len(want))
	}
	// Repeat the run: determinism must hold within a process too, not just
	// against the checked-in file.
	again := goldenTraceRun().JSON
	if string(got) != string(again) {
		t.Error("two identical runs exported different bytes")
	}
}

// With sampling off (retain everything) the tracer must agree with the
// loadgen's own accounting flow for flow: every measured request retained,
// outcomes matching the run counters, every timeline tiling exactly to its
// latency, and the slowest completed flow matching the histogram's maximum.
func TestTraceProperties(t *testing.T) {
	t.Parallel()
	run := TracedOverloadRun(Quick(), 0, 150_000, trace.Config{SampleEvery: 1, SlowestK: 8})
	res := run.Res
	retained := run.Tracer.Retained()

	if got, want := uint64(len(retained)), res.Sent; got != want {
		t.Errorf("retained %d flows, loadgen sent %d measured requests", got, want)
	}

	var completed, shed, timedOut, abandoned uint64
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
	}
	if completed != res.Completed || shed != res.Shed || timedOut != res.TimedOut || abandoned != res.Unresolved {
		t.Errorf("outcomes completed=%d shed=%d timedout=%d abandoned=%d; loadgen %d/%d/%d/%d",
			completed, shed, timedOut, abandoned,
			res.Completed, res.Shed, res.TimedOut, res.Unresolved)
	}

	// The loadgen records a completed flow's latency at the same instant the
	// tracer ends the flow, so the slowest completed timeline must equal the
	// histogram's exact observed maximum — the "within one bucket" criterion
	// holds with zero slack.
	var maxCompleted int64
	for _, f := range retained {
		if f.Outcome == trace.OutcomeCompleted && int64(f.Dur()) > maxCompleted {
			maxCompleted = int64(f.Dur())
		}
	}
	if maxCompleted != int64(res.Latency.Max()) {
		t.Errorf("slowest completed timeline %d ps, histogram max %d ps",
			maxCompleted, int64(res.Latency.Max()))
	}
	if res.Latency.Count() != res.Completed {
		t.Errorf("histogram holds %d samples, %d requests completed", res.Latency.Count(), res.Completed)
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		if q := res.Latency.Quantile(p); q > res.Latency.Max() {
			t.Errorf("Quantile(%v) = %v exceeds Max %v", p, q, res.Latency.Max())
		}
	}

	agg, n := run.Tracer.Aggregate()
	if agg != run.RunReceipt || n != run.RunReceipts {
		t.Errorf("tracer aggregate (%d receipts, %.0f cycles) != OnReceipt accumulator (%d, %.0f)",
			n, agg.Total(), run.RunReceipts, run.RunReceipt.Total())
	}
}
