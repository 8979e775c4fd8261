package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

const reportGoldenPath = "testdata/report_fingerprints.golden"

// readReportGolden parses the pinned report fingerprints: one
// "<id> <%016x>" line per registered experiment.
func readReportGolden(t *testing.T) map[string]string {
	data, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		if os.IsNotExist(err) && os.Getenv("UPDATE_GOLDEN") != "" {
			return map[string]string{}
		}
		t.Fatalf("read golden file: %v (regenerate with: UPDATE_GOLDEN=1 go test ./internal/experiments -run TestSerialParallelFingerprints)", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, fp, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", reportGoldenPath, line)
		}
		out[id] = fp
	}
	return out
}

// TestSerialParallelFingerprints is the determinism gate for the parallel
// sweep harness: running an experiment serially and with a multi-worker
// fan-out must produce byte-identical reports — same rendered table, same
// check evidence, same trace artifact bytes — because every sweep point is
// computed on exactly one goroutine against its own engine and results
// merge in point order. scripts/check.sh runs this test explicitly so a
// future change cannot silently trade determinism for speed.
//
// The serial fingerprints are also pinned in reportGoldenPath, so a
// refactor that claims to preserve behaviour is checked against the
// previous commit's reports, not only against itself. UPDATE_GOLDEN=1
// rewrites the file from this run.
func TestSerialParallelFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep pair per experiment; skipped in -short")
	}
	update := os.Getenv("UPDATE_GOLDEN") != ""
	want := readReportGolden(t)
	var mu sync.Mutex
	got := map[string]uint64{}
	if update {
		// Subtests run in parallel; write once, after all have finished.
		// Experiments filtered out by -run keep their pinned line.
		t.Cleanup(func() {
			for id, fp := range got {
				want[id] = fmt.Sprintf("%016x", fp)
			}
			var b strings.Builder
			for _, id := range sortedIDs() {
				if fp, ok := want[id]; ok {
					fmt.Fprintf(&b, "%s %s\n", id, fp)
				}
			}
			if err := os.WriteFile(reportGoldenPath, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d experiments)", reportGoldenPath, len(got))
		})
	}
	// Four experiments run at Quick scale for depth: fig9 exercises the
	// TCP stack, overload the shedding/retry layer (with a traced run so
	// artifact bytes are pinned too), batching the batched RX/TX grid plus
	// its own fingerprint rerun, and rpc its call chains, which collapse
	// at the reduced scale (half its points complete nothing there).
	// Everything else in the registry — including cluster's multi-client
	// racks — runs at a reduced scale so the whole registry stays covered
	// without hours of sweep time.
	deep := map[string]bool{"fig9": true, "overload": true, "batching": true, "rpc": true}
	traced := map[string]bool{"overload": true, "batching": true}
	tiny := Scale{StoreKeys: 200, MeasureMs: 2, WarmupMs: 1, SweepPoints: 2, Cores: 4}

	for _, id := range sortedIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fn := All()[id]
			serial := tiny
			if deep[id] {
				serial = Quick()
			}
			serial.Trace = traced[id]
			parallel := serial
			parallel.Workers = 4

			repS := fn(serial)
			repP := fn(parallel)
			fpS, fpP := repS.Fingerprint(), repP.Fingerprint()
			mu.Lock()
			got[id] = fpS
			mu.Unlock()
			if !update && want[id] != fmt.Sprintf("%016x", fpS) {
				t.Errorf("%s: serial fingerprint %016x != pinned %q in %s; if the change is intentional, regenerate with:\n"+
					"  UPDATE_GOLDEN=1 go test ./internal/experiments -run TestSerialParallelFingerprints",
					id, fpS, want[id], reportGoldenPath)
			}
			if fpS != fpP {
				t.Errorf("%s: serial fingerprint %016x != parallel %016x", id, fpS, fpP)
				if s, p := repS.String(), repP.String(); s != p {
					t.Logf("serial report:\n%s\nparallel report:\n%s", s, p)
				}
				for name, data := range repS.Artifacts {
					if string(repP.Artifacts[name]) != string(data) {
						t.Errorf("%s: artifact %s differs between serial and parallel", id, name)
					}
				}
			}
		})
	}
}

// sortedIDs lists every registered experiment in a stable order.
func sortedIDs() []string {
	ids := make([]string, 0, len(All()))
	for id := range All() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TestFingerprintSensitivity guards the gate itself: the fingerprint must
// actually move when any report surface changes.
func TestFingerprintSensitivity(t *testing.T) {
	base := func() *Report {
		r := &Report{ID: "x", Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}
		r.AddCheck("c", true, "ok")
		r.AddArtifact("f.json", []byte("{}"))
		return r
	}
	ref := base().Fingerprint()
	mutations := map[string]func(*Report){
		"row cell":  func(r *Report) { r.Rows[0][0] = "2" },
		"check":     func(r *Report) { r.Checks[0].Pass = false },
		"note":      func(r *Report) { r.Notes = append(r.Notes, "n") },
		"artifact":  func(r *Report) { r.Artifacts["f.json"] = []byte("{ }") },
		"new file":  func(r *Report) { r.AddArtifact("g.json", []byte("{}")) },
		"title":     func(r *Report) { r.Title = "u" },
		"check got": func(r *Report) { r.Checks[0].Got = "nope" },
	}
	for name, mutate := range mutations {
		r := base()
		mutate(r)
		if r.Fingerprint() == ref {
			t.Errorf("fingerprint did not change when %s changed", name)
		}
	}
}
