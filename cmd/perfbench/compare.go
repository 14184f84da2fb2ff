package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json the compare mode needs.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads the timed-run result files of two directories, A (the
// baseline) and B, and prints a row per workload and end-to-end metric:
// each side's median and quartiles, the spread (quartile distance over the
// median), B's change against A, and a verdict under the metric's bound.
//
//   - worse: B's median is worse than A's by more than the bound.
//   - better: B's median is better by more than A's own spread, and the
//     two sides' quartile ranges do not overlap.
//   - unresolved: a side's spread is wider than the bound, so the bound
//     cannot be resolved, unless every B run beats (or loses to) every A
//     run.
//   - same: none of these; the two sets agree within the bound.
//
// It exits 1 when any row is worse.
func compareMain(benchPath string, dirs []string) int {
	if len(dirs) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare needs two result directories: baseline and candidate")
		return 2
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", benchPath, err)
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i, dir := range dirs {
		if sets[i], err = loadResults(dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}

	fmt.Printf("%-20s %-12s %5s %11s %11s %11s %7s %11s %11s %11s %7s %8s  %s\n",
		"workload", "metric", "bound", "A.median", "A.q1", "A.q3", "A.sprd",
		"B.median", "B.q1", "B.q3", "B.sprd", "B/A-1", "verdict")
	tally := map[string]int{}
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			a, b := sets[0][wl.Name][m.Name], sets[1][wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-20s %-12s missing: A has %d runs, B has %d\n", wl.Name, m.Name, len(a), len(b))
				tally["missing"]++
				continue
			}
			qa, qb := quartiles(a), quartiles(b)
			sa, sb := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			change := qb[1]/qa[1] - 1
			v := verdict(a, b, qa, qb, sa, sb, m.Bound, m.Better == "higher")
			tally[v]++
			fmt.Printf("%-20s %-12s %5.2f %11.5g %11.5g %11.5g %7.4f %11.5g %11.5g %11.5g %7.4f %+8.4f  %s\n",
				wl.Name, m.Name, m.Bound, qa[1], qa[0], qa[2], sa, qb[1], qb[0], qb[2], sb, change, v)
		}
	}
	fmt.Printf("verdicts: %d same, %d better, %d worse, %d unresolved, %d missing\n",
		tally["same"], tally["better"], tally["worse"], tally["unresolved"], tally["missing"])
	if tally["worse"] > 0 || tally["missing"] > 0 {
		return 1
	}
	return 0
}

func verdict(a, b []float64, qa, qb [3]float64, sa, sb, bound float64, higherBetter bool) string {
	sign := 1.0 // worsening is positive
	if higherBetter {
		sign = -1
	}
	worse := sign * (qb[1]/qa[1] - 1)
	aLo, aHi := minMax(a)
	bLo, bHi := minMax(b)
	allWorse, allBetter := bLo > aHi, bHi < aLo
	quartilesApart := qb[2] < qa[0]
	if higherBetter {
		allWorse, allBetter = bHi < aLo, bLo > aHi
		quartilesApart = qb[0] > qa[2]
	}
	wide := sa > bound || sb > bound
	switch {
	case worse > bound && (!wide || allWorse):
		return "worse"
	case -worse > sa && quartilesApart && (!wide || allBetter):
		return "better"
	case wide:
		return "unresolved"
	}
	return "same"
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (its default
// exclusive method), with the median taken as the middle cut point.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// loadResults reads every timed-run result file in dir into workload ->
// metric -> values.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace != 0 || r.Workload == "" {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, k := range sortedKeys(r.Metrics) {
			out[r.Workload][k] = append(out[r.Workload][k], r.Metrics[k])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no timed-run result files in %s", dir)
	}
	return out, nil
}
