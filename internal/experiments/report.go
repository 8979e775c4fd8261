// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §5, §6) on the simulated substrate. Each experiment
// returns a Report: the table/series data in the same shape the paper
// presents, plus shape checks asserting the paper's qualitative claims
// (who wins, rough factors, where crossovers fall). cmd/cf-bench prints
// reports, and the package's tests assert the checks pass.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// CSV renders the report's table as RFC-4180-ish CSV (for plotting
// scripts). Cells containing commas or quotes are quoted.
func (r *Report) CSV() string {
	var b strings.Builder
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	row(r.Header)
	for _, cells := range r.Rows {
		row(cells)
	}
	return b.String()
}

// Report is one regenerated table or figure.
type Report struct {
	ID     string // e.g. "fig2", "tab1"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	Checks []Check
	// Artifacts holds binary side outputs keyed by suggested filename —
	// e.g. the Chrome trace JSON of a traced run. cf-bench writes them out
	// when given an artifact directory.
	Artifacts map[string][]byte
}

// AddArtifact records a binary side output under a suggested filename.
func (r *Report) AddArtifact(name string, data []byte) {
	if r.Artifacts == nil {
		r.Artifacts = map[string][]byte{}
	}
	r.Artifacts[name] = data
}

// Check is one shape assertion derived from the paper's claims.
type Check struct {
	Name string
	Pass bool
	Got  string
}

// AddCheck records a shape assertion.
func (r *Report) AddCheck(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Got: fmt.Sprintf(format, args...)})
}

// Failed returns the names of failing checks.
func (r *Report) Failed() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, fmt.Sprintf("%s (%s)", c.Name, c.Got))
		}
	}
	return out
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check [%s] %s: %s\n", status, c.Name, c.Got)
	}
	return b.String()
}

// Fingerprint hashes everything externally observable about the report —
// the rendered table, notes, checks, and every artifact byte — into a
// stable 64-bit FNV-1a digest. The serial-vs-parallel determinism gate
// compares fingerprints, so anything that could differ between runs must
// feed the hash.
func (r *Report) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // terminator so field boundaries can't alias
		h *= prime64
	}
	mix(r.String())
	names := make([]string, 0, len(r.Artifacts))
	for name := range r.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mix(name)
		mix(string(r.Artifacts[name]))
	}
	return h
}

// Scale controls experiment size so tests can run quickly while cf-bench
// runs the full versions.
type Scale struct {
	// StoreKeys scales preloaded key counts.
	StoreKeys int
	// MeasureMs is the measurement window per load point, in sim ms.
	MeasureMs int
	// WarmupMs is the warmup window.
	WarmupMs int
	// SweepPoints is the offered-load ladder length for curve experiments.
	SweepPoints int
	// Cores caps Fig 13's core count.
	Cores int
	// Trace asks experiments that support it to attach a per-request trace
	// artifact (Chrome trace-event JSON) to the report.
	Trace bool
	// Workers is the sweep fan-out width: how many independent sweep points
	// (each a fresh engine + testbed) may run concurrently on host
	// goroutines. 0 or 1 means serial. Results are always merged in point
	// order, so reports are byte-identical at every width — see
	// parallel.go for the isolation contract.
	Workers int
}

// Full is the default experiment scale.
func Full() Scale {
	return Scale{StoreKeys: 4000, MeasureMs: 20, WarmupMs: 3, SweepPoints: 8, Cores: 8}
}

// Quick is a reduced scale for tests.
func Quick() Scale {
	return Scale{StoreKeys: 400, MeasureMs: 5, WarmupMs: 1, SweepPoints: 4, Cores: 4}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func pct(new, old float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}
