package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const testSpec = `{
  "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
  "end_to_end": [
    {"name": "host_ns_per_req", "unit": "ns", "better": "lower", "bound": 0.25},
    {"name": "sim_goodput_rps", "unit": "req/s", "better": "higher", "bound": 0.03}
  ]
}`

// writeRun writes one synthetic run file in the layout scripts/ab.sh uses:
// a progress line, then the detail and result JSON lines.
func writeRun(t *testing.T, dir, workload, side string, pair int, fp string, ns, rps float64, failed int) {
	t.Helper()
	body := fmt.Sprintf("progress\n"+
		`{"workload":%q,"seed":1,"trace":false,"sim_fingerprint":%q,"completed":10,"reps":1,"checks":{"ok":true}}`+"\n"+
		`{"correct":true,"attempted":10,"failed":%d,"metrics":{"host_ns_per_req":{"value":%g,"unit":"ns"},"sim_goodput_rps":{"value":%g,"unit":"req/s"}}}`+"\n",
		workload, fp, failed, ns, rps)
	name := filepath.Join(dir, fmt.Sprintf("%s.%s.%d.json", workload, side, pair))
	if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func foldDir(t *testing.T, dir string) (string, bool) {
	t.Helper()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fold(specPath, dir)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := f.print(&out); err != nil {
		t.Fatal(err)
	}
	return out.String(), f.OK
}

// row returns the summary row of one workload and metric, split on blanks.
func row(t *testing.T, out, workload, metric string) []string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 2 && f[0] == workload && f[1] == metric {
			return f
		}
	}
	t.Fatalf("no %s %s row in:\n%s", workload, metric, out)
	return nil
}

func TestFoldMediansIQRRatioAndWins(t *testing.T) {
	dir := t.TempDir()
	// Five pairs: the change is faster in pairs 1, 2, 4 and 5, ties the
	// parent's goodput in every pair but the last, where it is higher.
	pNs := []float64{100, 110, 90, 130, 120}
	cNs := []float64{95, 100, 95, 105, 110}
	for i := range pNs {
		rps := 1000.0
		if i == 4 {
			rps = 1001
		}
		writeRun(t, dir, "w1", "parent", i+1, "abc", pNs[i], 1000, 0)
		writeRun(t, dir, "w1", "change", i+1, "abc", cNs[i], rps, 0)
	}
	out, ok := foldDir(t, dir)
	if !ok {
		t.Errorf("fold reported a failure:\n%s", out)
	}
	ns := row(t, out, "w1", "host_ns_per_req")
	// Columns: workload metric pmed unit piqr cmed unit ciqr ratio won bound
	// inside verdict.
	want := []string{"w1", "host_ns_per_req", "110", "ns", "20", "100", "ns", "10", "0.9091", "4/5", "0.25", "yes", "within", "spread"}
	if strings.Join(ns, " ") != strings.Join(want, " ") {
		t.Errorf("host_ns_per_req row %q, want %q", ns, want)
	}
	if rps := row(t, out, "w1", "sim_goodput_rps"); rps[9] != "1/5" || rps[8] != "1.0000" {
		t.Errorf("sim_goodput_rps row %q: want 1/5 won (ties count for neither) at ratio 1.0000", rps)
	}
	if !strings.Contains(out, "w1: 5 pairs; sim_fingerprint abc in every run; failed requests parent 0, change 0; checks passed") {
		t.Errorf("missing workload note:\n%s", out)
	}
	if strings.Contains(out, "w2") {
		t.Errorf("w2 has no runs but was reported:\n%s", out)
	}
}

func TestFoldFlagsBoundFingerprintAndFailures(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		// 30% slower host time (bound 25%), goodput 5% lower (bound 3%),
		// a different fingerprint and failed requests on the change side.
		writeRun(t, dir, "w2", "parent", i, "abc", 100, 1000, 0)
		writeRun(t, dir, "w2", "change", i, "abd", 130, 950, 2)
	}
	out, ok := foldDir(t, dir)
	if ok {
		t.Errorf("fold passed a regression:\n%s", out)
	}
	if ns := row(t, out, "w2", "host_ns_per_req"); ns[11] != "NO" || ns[8] != "1.3000" {
		t.Errorf("host_ns_per_req row %q: want ratio 1.3000 outside its bound", ns)
	}
	if rps := row(t, out, "w2", "sim_goodput_rps"); rps[11] != "NO" {
		t.Errorf("sim_goodput_rps row %q: want outside its bound", rps)
	}
	if !strings.Contains(out, "sim_fingerprint DIFFERS") || !strings.Contains(out, "failed requests parent 0, change 6") {
		t.Errorf("mismatch or failures not reported:\n%s", out)
	}
}

func TestFoldRejectsUnevenPairs(t *testing.T) {
	dir := t.TempDir()
	writeRun(t, dir, "w1", "parent", 1, "abc", 100, 1000, 0)
	writeRun(t, dir, "w1", "parent", 2, "abc", 100, 1000, 0)
	writeRun(t, dir, "w1", "change", 1, "abc", 100, 1000, 0)
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fold(specPath, dir); err == nil {
		t.Error("fold accepted 2 parent runs against 1 change run")
	}
}

func TestQuantileType7(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q1, q2, q3 := quantile(xs, 0.25), median(xs), quantile(xs, 0.75); q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles %v %v %v, want 2 3 4", q1, q2, q3)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", m)
	}
}

// TestFoldVerdicts covers each verdict on ten synthetic pairs: a gain needs
// nine wins in ten and a median gain beyond the parent's IQR, in the
// metric's better direction; a ratio outside the bound is a regression.
func TestFoldVerdicts(t *testing.T) {
	// parent is ten host times with median 104.5 and IQR 4.5.
	parent := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	shift := func(d float64, except ...int) []float64 {
		c := make([]float64, len(parent))
		for i, p := range parent {
			c[i] = p + d
		}
		for _, i := range except {
			c[i] = parent[i] // a tie, which counts for neither side
		}
		return c
	}
	for _, tc := range []struct {
		name     string
		ns, rps  []float64 // change values; the parent's goodput is 1000
		nsV, rpV string
	}{
		{"gain in all ten", shift(-20), nil, gain, withinSpread},
		{"gain in nine", shift(-20, 3), nil, gain, withinSpread},
		{"eight wins", shift(-20, 3, 7), nil, withinSpread, withinSpread},
		{"ten wins inside the IQR", shift(-4), nil, withinSpread, withinSpread},
		{"slower inside the bound", shift(10), nil, withinSpread, withinSpread},
		{"regression", shift(30), nil, regression, withinSpread},
		{"higher goodput", nil, []float64{1050, 1050, 1050, 1050, 1050, 1050, 1050, 1050, 1050, 1050}, withinSpread, gain},
		{"lower goodput", nil, []float64{950, 950, 950, 950, 950, 950, 950, 950, 950, 950}, withinSpread, regression},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for i := range parent {
				ns, rps := parent[i], 1000.0
				if tc.ns != nil {
					ns = tc.ns[i]
				}
				if tc.rps != nil {
					rps = tc.rps[i]
				}
				writeRun(t, dir, "w1", "parent", i+1, "abc", parent[i], 1000, 0)
				writeRun(t, dir, "w1", "change", i+1, "abc", ns, rps, 0)
			}
			out, _ := foldDir(t, dir)
			for _, c := range []struct{ metric, want string }{{"host_ns_per_req", tc.nsV}, {"sim_goodput_rps", tc.rpV}} {
				if got := strings.Join(row(t, out, "w1", c.metric)[12:], " "); got != c.want {
					t.Errorf("%s verdict %q, want %q", c.metric, got, c.want)
				}
			}
		})
	}
}

// TestFoldWritesJSON round-trips the fold through its JSON file.
func TestFoldWritesJSON(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		writeRun(t, dir, "w2", "parent", i, "abc", 100, 1000, 0)
		writeRun(t, dir, "w2", "change", i, "abd", 130, 1000, 1)
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fold(specPath, dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fold.json")
	if err := f.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got folded
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("JSON round trip changed the fold:\n%+v\nwant\n%+v", got, f)
	}
	if got.OK || len(got.Rows) != 2 || got.Rows[0].Verdict != regression || got.Rows[0].Ratio != 1.3 {
		t.Errorf("fold %+v: want not OK and host_ns_per_req a regression at ratio 1.3", got)
	}
	n := got.Notes[0]
	if n.Seed != 1 || n.Pairs != 3 || n.Matched || n.ChangeFingerprint != "abd" || n.ChangeFailed != 3 {
		t.Errorf("workload note %+v", n)
	}
}
