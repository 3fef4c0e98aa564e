package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(s, 95); got != 10 {
		t.Errorf("p95 = %g, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 30}, [3]float64{5, 20, 35}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 0, Name: "root", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{ID: 3, Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{ID: 4, Name: "a.x", Start: 12, End: 18, Parent: 1},
		{ID: 5, Name: "other", Start: 0, End: 40, Parent: -1},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 30, 4: 6, 5: 40} {
		if self[id] != want {
			t.Errorf("self(%s) = %d, want %d", spans[id].Name, self[id], want)
		}
	}
	st := summarize(spans)
	if got, _ := st.medianSelfUs("root"); got != 0.05 {
		t.Errorf("root self = %g us, want 0.05", got)
	}
}

func TestTracerRecordsOnlyWhileEnabled(t *testing.T) {
	tr := newTracer()
	if id := tr.Begin("off", -1, 0); id != -1 {
		t.Fatalf("disabled Begin = %d, want -1", id)
	}
	tr.SetEnabled(true)
	outer := tr.Begin("outer", -1, 7)
	inner := tr.Begin("inner", outer, 7)
	tr.End(inner)
	tr.End(outer)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Frame != 7 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	const rate, window = 85.0, 20 * time.Second
	a, b := poissonSchedule(3, rate, window), poissonSchedule(3, rate, window)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) != 1700 {
		t.Fatalf("%d arrivals, want rate*window = 1700", len(a))
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= window {
		t.Fatal("schedule not sorted within the window")
	}
	if slices.Equal(a, poissonSchedule(4, rate, window)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Gaps of a Poisson process are exponential: their mean is 1/rate and
	// their standard deviation equals the mean.
	var sum, sq float64
	for i := 1; i < len(a); i++ {
		g := (a[i] - a[i-1]).Seconds()
		sum += g
		sq += g * g
	}
	n := float64(len(a) - 1)
	mean := sum / n
	sd := sq/n - mean*mean
	if mean < 0.9/rate || mean > 1.1/rate || sd < 0.8*mean*mean || sd > 1.2*mean*mean {
		t.Fatalf("gap mean %g (want ~%g), variance %g (want ~%g)", mean, 1/rate, sd, mean*mean)
	}
	p := periodicSchedule(3, 1, 6.5, window)
	if !slices.Equal(p, periodicSchedule(3, 1, 6.5, window)) || slices.Equal(p, periodicSchedule(3, 0, 6.5, window)) {
		t.Fatal("periodic schedule must depend on seed and session only")
	}
}

func TestWithSeqSplicesSequence(t *testing.T) {
	body, err := json.Marshal(serve.StreamFrame{Width: 1, Height: 1, Pixels: []float32{0.5, 0.25, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var f serve.StreamFrame
	if err := json.Unmarshal(withSeq(nil, body, 42), &f); err != nil {
		t.Fatal(err)
	}
	if f.Seq != 42 || f.Width != 1 || len(f.Pixels) != 3 {
		t.Fatalf("decoded %+v", f)
	}
}

// testOracle builds the oracle of a small workload over two frames.
func testOracle(t *testing.T, w workload) (*oracle, [][]byte) {
	t.Helper()
	w.distinct = 2
	bodies, err := encodeBodies(w, frames(w, 5))
	if err != nil {
		t.Fatal(err)
	}
	det, model, err := buildModel(w)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(w, model.CloneForInference(), det.Model().CloneForInference(), det.Thresh, det.NMSThresh, bodies)
	if err != nil {
		t.Fatal(err)
	}
	return o, bodies
}

func TestCorruptedAnswerCountsAsFailed(t *testing.T) {
	w := workload{name: "tiny", size: 96, scale: 0.25, wire: wireJSON}
	o, _ := testOracle(t, w)
	good := func(frame int) answer {
		return answer{frame: frame, ok: true, code: 200, dets: toWire(o.dets[frame])}
	}
	corrupt := good(1)
	corrupt.dets = append(corrupt.dets, serve.DetectionJSON{X: 0.5, Y: 0.5, W: 0.1, H: 0.1, Score: 0.9})
	refused := answer{frame: 0, code: 429, kind: "http", err: "429 Too Many Requests"}
	p := &phaseResult{answers: []answer{good(0), corrupt, good(1), refused}}
	v := o.check(p, false)
	if v.attempted != 4 || v.failed != 2 || v.mismatches != 1 {
		t.Fatalf("verdict %+v, want 4 attempted, 2 failed, 1 mismatch", v)
	}
	if !slices.Equal(v.bad, []bool{false, true, false, true}) {
		t.Fatalf("bad = %v", v.bad)
	}
	if v.agreement != 1 {
		t.Fatalf("agreement of fp32 answers with the fp32 oracle = %g, want 1", v.agreement)
	}
}

func TestStreamTracksCheckedAgainstReplay(t *testing.T) {
	w := workload{name: "tiny-stream", size: 96, scale: 0.25, wire: wireStream}
	o, _ := testOracle(t, w)
	// Give frame 0 a detection so the replay confirms a track.
	o.dets[0] = []detect.Detection{{Box: detect.Box{X: 0.5, Y: 0.5, W: 0.2, H: 0.2}, Score: 0.8}}
	o.want[0] = wireJSONOf(toWire(o.dets[0]))
	var answers []answer
	for k := range 3 {
		answers = append(answers, answer{req: k, order: k, tracked: k + 1, ok: true, dets: toWire(o.dets[0])})
	}
	answers[1].tracks = []serve.TrackJSON{{ID: 1, X: 0.5, Y: 0.5, W: 0.2, H: 0.2, Score: 0.8, Hits: 2, Age: 1}}
	answers[2].tracks = []serve.TrackJSON{{ID: 1, X: 0.5, Y: 0.5, W: 0.2, H: 0.2, Score: 0.8, Hits: 3, Age: 2}}
	if v := o.check(&phaseResult{answers: answers}, true); v.failed != 0 {
		t.Fatalf("faithful tracks failed: %+v", v)
	}
	answers[2].tracks[0].ID = 9
	if v := o.check(&phaseResult{answers: answers}, true); v.mismatches != 1 || !v.bad[2] {
		t.Fatalf("corrupted track not caught: %+v", v)
	}
}

func TestKeptSegmentsDropStolenTime(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []bool
	}{
		{nil, []bool{true, true, true, true}},
		{[]float64{0.001, 0.08, 0.01, 0.02}, []bool{true, false, true, true}},
		{[]float64{0.2, 0.05, 0.01, 0.3}, []bool{false, false, true, false}},
		{[]float64{0.2, 0.05, 0.09, 0.3}, []bool{false, true, false, false}},
	} {
		if got := keptSegments(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("keptSegments(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := summarizeSide([]float64{100, 101, 99, 100, 100})
	slower := summarizeSide([]float64{120, 121, 119, 120, 120})
	noisy := summarizeSide([]float64{60, 140, 100, 80, 120})
	if _, v := verdictFor(base, base, "lower", 0.1); v != "same" {
		t.Errorf("identical sets: %s", v)
	}
	if w, v := verdictFor(base, slower, "lower", 0.1); v != "REGRESSION" || w < 0.19 {
		t.Errorf("20%% slower: %s (%g)", v, w)
	}
	if _, v := verdictFor(slower, base, "lower", 0.1); v != "better" {
		t.Errorf("20%% faster: %s", v)
	}
	if _, v := verdictFor(base, slower, "higher", 0.1); v != "better" {
		t.Errorf("20%% more of a higher-is-better metric: %s", v)
	}
	if _, v := verdictFor(base, noisy, "lower", 0.1); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
}

// BENCHMARK.json and the code must list the same workloads and metrics.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	// The code may hold a workload BENCHMARK.json leaves out (oneshot-json,
	// whose tail latency is not steady on a shared host), not the reverse.
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	check := func(kind string, got []metricDef, defs []metricDef) {
		if !slices.Equal(got, defs) {
			t.Errorf("%s metrics differ from the code:\n json %v\n code %v", kind, got, defs)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

func TestRunEndToEndSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serves real traffic for a second")
	}
	w, err := workloadByName("oneshot-json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEndToEnd(w, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != int(w.rate) {
		t.Fatalf("result %+v", res)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		}
	}
}

func TestCoveragePairsEachRoundWithItsForward(t *testing.T) {
	d := &direct{w: workload{}}
	spans := []Span{
		{ID: 0, Name: "network.forward/b1", Start: 0, End: 100, Parent: -1, Frame: 1},
		{ID: 1, Name: "layers/b1", Start: 100, End: 200, Parent: -1, Frame: 1},
		{ID: 2, Name: "layers.00/b1", Start: 100, End: 140, Parent: 1},
		{ID: 3, Name: "layers.01/b1", Start: 140, End: 195, Parent: 1},
		// A slower round: the host ran at half speed for both passes.
		{ID: 4, Name: "network.forward/b1", Start: 200, End: 400, Parent: -1, Frame: 2},
		{ID: 5, Name: "layers/b1", Start: 400, End: 610, Parent: -1, Frame: 2},
		{ID: 6, Name: "layers.00/b1", Start: 400, End: 500, Parent: 5},
		{ID: 7, Name: "layers.01/b1", Start: 500, End: 605, Parent: 5},
	}
	if got, want := d.coverage(spans), (0.95+1.025)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("coverage = %g, want %g", got, want)
	}
}
