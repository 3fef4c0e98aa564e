package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runLog is one run's output: its stamp and its result.
type runLog struct {
	stamp  stamp
	result result
}

// readRuns parses every file in dir as the standard output of one run.
func readRuns(dir string) ([]runLog, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []runLog
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var rl runLog
		var last []byte
		haveStamp := false
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var s map[string]stamp
			if bytes.HasPrefix(line, []byte(`{"stamp":`)) && json.Unmarshal(line, &s) == nil {
				rl.stamp, haveStamp = s["stamp"], true
			}
			last = append(last[:0], line...)
		}
		if !haveStamp || json.Unmarshal(last, &rl.result) != nil || rl.result.Metrics == nil {
			fmt.Fprintf(os.Stderr, "compare: skipping %s: no stamp or result line\n", e.Name())
			continue
		}
		out = append(out, rl)
	}
	return out, nil
}

// side summarizes one metric over one result set.
type side struct {
	n           int
	q1, med, q3 float64
	vals        []float64
}

func summarizeSide(vals []float64) side {
	q1, q2, q3 := quartiles(vals)
	return side{n: len(vals), q1: q1, med: q2, q3: q3, vals: vals}
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		if s.q3 == s.q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// verdictFor judges B against A for one metric. worse is B's median change
// in the metric's bad direction as a share of A's median.
func verdictFor(a, b side, better string, bound float64) (worse float64, verdict string) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	switch {
	case a.med != 0:
		worse = sign * (b.med - a.med) / math.Abs(a.med)
	case b.med != 0:
		worse = sign * math.Copysign(math.Inf(1), b.med)
	}
	if bound <= 0 {
		return worse, "info"
	}
	if a.spread() > bound || b.spread() > bound {
		if allBetter(a.vals, b.vals, sign) {
			return worse, "better"
		}
		return worse, "unresolved"
	}
	switch {
	case worse > bound:
		return worse, "REGRESSION"
	case worse < -bound:
		return worse, "better"
	}
	return worse, "same"
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareMain diffs two result sets workload by workload and metric by
// metric: each side's median and quartiles, B's change against A, and a
// verdict against the bound in BENCHMARK.json. It exits 1 when any metric
// regressed beyond its bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] <runs-dir-A> <runs-dir-B>")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	type key struct {
		workload string
		trace    int
	}
	sets := [2]map[key][]runLog{{}, {}}
	for i, dir := range fs.Args() {
		runs, err := readRuns(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		for _, r := range runs {
			k := key{r.stamp.Workload, r.stamp.Trace}
			sets[i][k] = append(sets[i][k], r)
		}
	}
	var keys []key
	for k := range sets[0] {
		if len(sets[1][k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	if len(keys) == 0 {
		fmt.Fprintln(os.Stderr, "compare: the two result sets share no workload")
		return 2
	}
	type row struct {
		name, better string
		bound        float64
	}
	regressed := false
	for _, k := range keys {
		var rows []row
		if k.trace == 0 {
			for _, m := range spec.EndToEnd {
				rows = append(rows, row{m.Name, m.Better, m.Bound})
			}
		} else {
			for _, m := range spec.PerLayer {
				rows = append(rows, row{m.Name, m.Better, 0})
			}
		}
		fmt.Printf("== %s (trace %d): A %d runs, B %d runs\n", k.workload, k.trace, len(sets[0][k]), len(sets[1][k]))
		fmt.Printf("%-28s %34s %34s %9s %6s  %s\n", "metric", "A median [q1 q3] spread", "B median [q1 q3] spread", "worse", "bound", "verdict")
		for _, r := range rows {
			var sides [2]side
			for i := range sides {
				var vals []float64
				for _, run := range sets[i][k] {
					if v, ok := run.result.Metrics[r.name]; ok {
						vals = append(vals, v.Value)
					}
				}
				sides[i] = summarizeSide(vals)
			}
			if sides[0].n == 0 || sides[1].n == 0 {
				fmt.Printf("%-28s missing on one side\n", r.name)
				continue
			}
			worse, v := verdictFor(sides[0], sides[1], r.better, r.bound)
			regressed = regressed || v == "REGRESSION"
			fmt.Printf("%-28s %34s %34s %+8.2f%% %5.0f%%  %s\n", r.name, sideString(sides[0]), sideString(sides[1]), 100*worse, 100*r.bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func sideString(s side) string {
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g %.4g] %.1f%%", s.med, s.q1, s.q3, 100*s.spread()))
}
