// Command abfold folds interleaved parent/change runs of the repository
// benchmark into one summary. For each workload and end-to-end metric of
// BENCHMARK.json it prints both sides' medians and interquartile ranges,
// the change/parent ratio of the medians, the pairs the change won (ties
// count for neither side), and whether the ratio is inside the metric's
// regression bound; for each workload, whether every run's
// sim_fingerprint matched and how many requests failed on each side.
//
// Usage:
//
//	abfold BENCHMARK.json <run-dir>
//
// The run directory holds one file per benchmark run, named
// <workload>.<side>.<pair>.json with side "parent" or "change", each ending
// with the two JSON lines bench/bench.sh prints. scripts/ab.sh writes it.
// abfold exits 1 when a ratio is outside its bound, a fingerprint differs
// or a run's checks failed, and 2 on unreadable input.
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
	Fingerprint string `json:"sim_fingerprint"`
	Correct     bool   `json:"correct"`
	Failed      uint64 `json:"failed"`
	Metrics     map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: abfold BENCHMARK.json <run-dir>")
		os.Exit(2)
	}
	ok, err := fold(os.Stdout, os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "abfold:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// fold writes the summary of the runs in dir against the benchmark spec
// at specPath, and reports whether every metric is inside its bound, every
// fingerprint matched and every run's checks passed. Workloads with no
// runs in dir are skipped.
func fold(w io.Writer, specPath, dir string) (bool, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median\tparent IQR\tchange median\tchange IQR\tchange/parent\tchange won\tbound\tinside")
	ok := true
	var notes []string
	for _, wl := range sp.Workloads {
		parent, err := load(dir, wl.Name, "parent")
		if err != nil {
			return false, err
		}
		change, err := load(dir, wl.Name, "change")
		if err != nil {
			return false, err
		}
		if len(parent) == 0 && len(change) == 0 {
			continue
		}
		if len(parent) != len(change) {
			return false, fmt.Errorf("%s: %d parent runs, %d change runs", wl.Name, len(parent), len(change))
		}
		for _, m := range sp.EndToEnd {
			p, c := values(parent, m.Name), values(change, m.Name)
			mp, mc := median(p), median(c)
			ratio := 1.0
			if mp != 0 || mc != 0 {
				ratio = mc / mp
			}
			won := 0
			for i := range p {
				if better(m, c[i], p[i]) {
					won++
				}
			}
			inside := ratio <= 1+m.Bound
			if m.Better == "higher" {
				inside = ratio >= 1-m.Bound
			}
			ok = ok && inside
			fmt.Fprintf(tw, "%s\t%s\t%s %s\t%s\t%s %s\t%s\t%.4f\t%d/%d\t%g\t%s\n",
				wl.Name, m.Name, num(mp), m.Unit, num(iqr(p)), num(mc), m.Unit, num(iqr(c)), ratio, won, len(p), m.Bound, yesNo(inside))
		}
		fp, matched := fingerprint(parent, change)
		var pf, cf uint64
		correct := true
		for i := range parent {
			pf += parent[i].Failed
			cf += change[i].Failed
			correct = correct && parent[i].Correct && change[i].Correct
		}
		ok = ok && matched && correct
		notes = append(notes, fmt.Sprintf("%s: %d pairs; sim_fingerprint %s; failed requests parent %d, change %d; checks %s",
			wl.Name, len(parent), fp, pf, cf, passFail(correct)))
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	return ok, nil
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

// fingerprint returns the one sim_fingerprint every run shares, or a
// description of the mismatch.
func fingerprint(parent, change []run) (string, bool) {
	fp := parent[0].Fingerprint
	for _, side := range [][]run{parent, change} {
		for _, r := range side {
			if r.Fingerprint != fp {
				return fmt.Sprintf("DIFFERS (parent %s, change %s)", parent[0].Fingerprint, change[0].Fingerprint), false
			}
		}
	}
	return fp + " in every run", true
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
