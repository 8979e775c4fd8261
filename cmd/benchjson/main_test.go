package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committedPrev is a record written before the partitioned pass was
// removed: its cluster, chaos and rpc entries still carry
// partitioned_ns_op / speedup_partitioned, and the record carries the
// matching totals.
const committedPrev = "../../BENCH_10.json"

// TestFoldAgainstCommittedRecord loads a committed record as -prev and
// checks that every benchmark in it parses and matches by name: a serial
// pass that ran each benchmark at exactly twice the recorded time with 3
// more allocs/op must read as 0.5× and +3 everywhere.
func TestFoldAgainstCommittedRecord(t *testing.T) {
	raw, err := os.ReadFile(committedPrev)
	if err != nil {
		t.Fatal(err)
	}
	for _, legacy := range []string{`"partitioned_ns_op"`, `"speedup_partitioned"`, `"total_partitioned_ns"`} {
		if !strings.Contains(string(raw), legacy) {
			t.Fatalf("%s no longer carries %s; pick a record that does", committedPrev, legacy)
		}
	}
	prev, err := loadPrev(committedPrev)
	if err != nil {
		t.Fatal(err)
	}
	var generic struct {
		Benchmarks []map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatal(err)
	}
	if len(prev.Benchmarks) == 0 || len(prev.Benchmarks) != len(generic.Benchmarks) {
		t.Fatalf("parsed %d benchmarks, file has %d", len(prev.Benchmarks), len(generic.Benchmarks))
	}

	var sb strings.Builder
	for _, e := range prev.Benchmarks {
		if e.SerialNsOp <= 0 {
			t.Fatalf("%s: serial_ns_op %v did not parse", e.Name, e.SerialNsOp)
		}
		fmt.Fprintf(&sb, "Benchmark%s-2  1  %.2f ns/op  %d B/op  %d allocs/op\n",
			e.Name, 2*e.SerialNsOp, e.SerialBOp, e.SerialAllocsOp+3)
	}
	serialPath := filepath.Join(t.TempDir(), "serial.txt")
	if err := os.WriteFile(serialPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := fold(serialPath, "", committedPrev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != len(prev.Benchmarks) {
		t.Fatalf("folded %d benchmarks, want %d", len(rec.Benchmarks), len(prev.Benchmarks))
	}
	for i, e := range rec.Benchmarks {
		if e.Name != prev.Benchmarks[i].Name {
			t.Errorf("benchmark %d: name %q, want %q", i, e.Name, prev.Benchmarks[i].Name)
		}
		if math.Abs(e.SpeedupVsPrev-0.5) > 1e-9 {
			t.Errorf("%s: speedup_vs_prev %v, want 0.5", e.Name, e.SpeedupVsPrev)
		}
		if e.AllocsVsPrev == nil || *e.AllocsVsPrev != 3 {
			t.Errorf("%s: allocs_vs_prev %v, want 3", e.Name, e.AllocsVsPrev)
		}
	}
	if rec.PrevRecord != committedPrev || math.Abs(rec.SpeedupVsPrev-0.5) > 1e-9 {
		t.Errorf("record: prev %q speedup %v, want %q 0.5", rec.PrevRecord, rec.SpeedupVsPrev, committedPrev)
	}
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "partitioned") {
		t.Errorf("new record still writes partitioned fields: %s", out)
	}
}
