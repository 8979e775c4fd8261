// Command abfold folds interleaved parent/change runs of the repository
// benchmark into one summary. For each workload and end-to-end metric of
// BENCHMARK.json it prints both sides' medians and interquartile ranges,
// the change/parent ratio of the medians, the pairs the change won (ties
// count for neither side), whether the ratio is inside the metric's
// regression bound, and a verdict:
//
//   - gain: the change won at least nine pairs in ten and its median beats
//     the parent's by more than the parent's IQR;
//   - regression: the ratio is outside the bound;
//   - within spread: anything else.
//
// For each workload it prints whether every run's sim_fingerprint matched
// and how many requests failed on each side.
//
// Usage:
//
//	abfold BENCHMARK.json <run-dir> [fold.json]
//
// The run directory holds one file per benchmark run, named
// <workload>.<side>.<pair>.json with side "parent" or "change", each ending
// with the two JSON lines bench/bench.sh prints. scripts/ab.sh writes it.
// With a third argument abfold also writes the fold there as JSON. It
// exits 1 when a ratio is outside its bound, a fingerprint differs or a
// run's checks failed, and 2 on unreadable input.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json abfold reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one benchmark run: its detail line and its result line.
type run struct {
	Seed        uint64 `json:"seed"`
	Fingerprint string `json:"sim_fingerprint"`
	Correct     bool   `json:"correct"`
	Failed      uint64 `json:"failed"`
	Metrics     map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 3 && len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: abfold BENCHMARK.json <run-dir> [fold.json]")
		os.Exit(2)
	}
	f, err := fold(os.Args[1], os.Args[2])
	if err == nil {
		err = f.print(os.Stdout)
	}
	if err == nil && len(os.Args) == 4 {
		err = f.write(os.Args[3])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abfold:", err)
		os.Exit(2)
	}
	if !f.OK {
		os.Exit(1)
	}
}

// Verdicts (see the package comment for the rule).
const (
	gain         = "gain"
	regression   = "regression"
	withinSpread = "within spread"
)

// folded is the fold of one run directory: a comparison per workload and
// metric, and a note per workload. OK reports whether every metric is
// inside its bound, every fingerprint matched and every run's checks
// passed.
type folded struct {
	Rows  []comparison `json:"metrics"`
	Notes []note       `json:"workloads"`
	OK    bool         `json:"ok"`
}

// comparison is one workload's end-to-end metric over all its pairs.
type comparison struct {
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric"`
	Unit         string  `json:"unit"`
	ParentMedian float64 `json:"parent_median"`
	ParentIQR    float64 `json:"parent_iqr"`
	ChangeMedian float64 `json:"change_median"`
	ChangeIQR    float64 `json:"change_iqr"`
	Ratio        float64 `json:"ratio"`
	Won          int     `json:"change_won"`
	Pairs        int     `json:"pairs"`
	Bound        float64 `json:"bound"`
	Inside       bool    `json:"inside_bound"`
	Verdict      string  `json:"verdict"`
}

// note is one workload's fingerprints, failures and checks.
type note struct {
	Workload          string `json:"workload"`
	Seed              uint64 `json:"seed"`
	Pairs             int    `json:"pairs"`
	ParentFingerprint string `json:"parent_fingerprint"`
	ChangeFingerprint string `json:"change_fingerprint"`
	Matched           bool   `json:"fingerprint_matched"`
	ParentFailed      uint64 `json:"parent_failed"`
	ChangeFailed      uint64 `json:"change_failed"`
	ChecksPassed      bool   `json:"checks_passed"`
}

// fold folds the runs in dir against the benchmark spec at specPath.
// Workloads with no runs in dir are skipped.
func fold(specPath, dir string) (folded, error) {
	f := folded{OK: true}
	b, err := os.ReadFile(specPath)
	if err != nil {
		return f, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return f, fmt.Errorf("%s: %w", specPath, err)
	}
	for _, wl := range sp.Workloads {
		parent, err := load(dir, wl.Name, "parent")
		if err != nil {
			return f, err
		}
		change, err := load(dir, wl.Name, "change")
		if err != nil {
			return f, err
		}
		if len(parent) == 0 && len(change) == 0 {
			continue
		}
		if len(parent) != len(change) {
			return f, fmt.Errorf("%s: %d parent runs, %d change runs", wl.Name, len(parent), len(change))
		}
		for _, m := range sp.EndToEnd {
			r := compare(m, values(parent, m.Name), values(change, m.Name))
			r.Workload = wl.Name
			f.OK = f.OK && r.Inside
			f.Rows = append(f.Rows, r)
		}
		n := note{
			Workload: wl.Name, Seed: parent[0].Seed, Pairs: len(parent),
			ParentFingerprint: parent[0].Fingerprint, ChangeFingerprint: change[0].Fingerprint,
			Matched: matched(parent, change), ChecksPassed: true,
		}
		for i := range parent {
			n.ParentFailed += parent[i].Failed
			n.ChangeFailed += change[i].Failed
			n.ChecksPassed = n.ChecksPassed && parent[i].Correct && change[i].Correct
		}
		f.OK = f.OK && n.Matched && n.ChecksPassed
		f.Notes = append(f.Notes, n)
	}
	return f, nil
}

// compare folds one metric's parent and change values, in pair order.
func compare(m metric, p, c []float64) comparison {
	r := comparison{
		Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Pairs: len(p),
		ParentMedian: median(p), ParentIQR: iqr(p), ChangeMedian: median(c), ChangeIQR: iqr(c),
		Ratio: 1,
	}
	if r.ParentMedian != 0 || r.ChangeMedian != 0 {
		r.Ratio = r.ChangeMedian / r.ParentMedian
	}
	for i := range p {
		if better(m, c[i], p[i]) {
			r.Won++
		}
	}
	// gained is how far the change's median beats the parent's.
	gained := r.ParentMedian - r.ChangeMedian
	r.Inside = r.Ratio <= 1+m.Bound
	if m.Better == "higher" {
		gained = -gained
		r.Inside = r.Ratio >= 1-m.Bound
	}
	switch {
	case !r.Inside:
		r.Verdict = regression
	case 10*r.Won >= 9*r.Pairs && gained > r.ParentIQR:
		r.Verdict = gain
	default:
		r.Verdict = withinSpread
	}
	return r
}

// print writes the fold as a table, then one line per workload.
func (f folded) print(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median\tparent IQR\tchange median\tchange IQR\tchange/parent\tchange won\tbound\tinside\tverdict")
	for _, r := range f.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s %s\t%s\t%s %s\t%s\t%.4f\t%d/%d\t%g\t%s\t%s\n",
			r.Workload, r.Metric, num(r.ParentMedian), r.Unit, num(r.ParentIQR), num(r.ChangeMedian), r.Unit,
			num(r.ChangeIQR), r.Ratio, r.Won, r.Pairs, r.Bound, yesNo(r.Inside), r.Verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range f.Notes {
		fp := n.ParentFingerprint + " in every run"
		if !n.Matched {
			fp = fmt.Sprintf("DIFFERS (parent %s, change %s)", n.ParentFingerprint, n.ChangeFingerprint)
		}
		fmt.Fprintf(w, "%s: %d pairs; sim_fingerprint %s; failed requests parent %d, change %d; checks %s\n",
			n.Workload, n.Pairs, fp, n.ParentFailed, n.ChangeFailed, passFail(n.ChecksPassed))
	}
	return nil
}

// write stores the fold as indented JSON at path.
func (f folded) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// load reads one side's runs of a workload, ordered by pair number.
func load(dir, workload, side string) ([]run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, workload+"."+side+".*.json"))
	if err != nil {
		return nil, err
	}
	pair := func(p string) int {
		n, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), workload+"."+side+"."), ".json"))
		return n
	}
	slices.SortFunc(paths, func(a, b string) int { return pair(a) - pair(b) })
	runs := make([]run, len(paths))
	for i, p := range paths {
		if runs[i], err = readRun(p); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// readRun decodes a run file's last two lines, the detail line and then
// the result line, into one run.
func readRun(path string) (run, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return run{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) < 2 {
		return run{}, fmt.Errorf("%s: want the benchmark's two JSON lines, found %d lines", path, len(lines))
	}
	var r run
	for _, l := range lines[len(lines)-2:] {
		if err := json.Unmarshal(l, &r); err != nil {
			return run{}, fmt.Errorf("%s: %w", path, err)
		}
	}
	if r.Fingerprint == "" || r.Metrics == nil {
		return run{}, fmt.Errorf("%s: no sim_fingerprint or metrics", path)
	}
	return r, nil
}

// values returns one metric's value in every run, in pair order.
func values(runs []run, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

func better(m metric, change, parent float64) bool {
	if m.Better == "higher" {
		return change > parent
	}
	return change < parent
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (R's type 7), so with 5 runs the quartiles are the 2nd and
// 4th smallest.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr is the distance between the upper and lower quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// matched reports whether every run shares one sim_fingerprint.
func matched(parent, change []run) bool {
	fp := parent[0].Fingerprint
	for _, side := range [][]run{parent, change} {
		for _, r := range side {
			if r.Fingerprint != fp {
				return false
			}
		}
	}
	return true
}

// num prints a value to 4 significant digits, and whole from 1000 up.
func num(v float64) string {
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

func passFail(b bool) string {
	if b {
		return "passed"
	}
	return "FAILED"
}
