// Command perfbench is the repository's benchmark. It serves DroNet with
// the real serve.Server behind a loopback listener, drives one workload's
// traffic at it, checks every answer against a serial oracle, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run). The last line of its output is one JSON result object.
//
//	perfbench --workload paper-png --seed 1 --seconds 24 --trace 0
//	perfbench --workload all --seed 1 --seconds 24 --trace 0
//	perfbench compare <runs-dir-A> <runs-dir-B>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/network"
)

// setupReps is how many times an untraced run builds and warms the whole
// stack; setup_s is the median.
const setupReps = 3

// failedLatencyMs stands in for the latency of a failed attempt, which
// misses every latency limit: it is the load generator's request timeout.
const failedLatencyMs = 30000

// warmFrames is how many frames each client sends while warming up.
const warmFrames = 1

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed: frames and arrival times")
	seconds := fs.Int("seconds", 24, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	_ = fs.Parse(os.Args[1:])
	run := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v; want one of %s, or all\n", err, names())
			os.Exit(2)
		}
		run = []workload{w}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	ok := true
	for _, w := range run {
		if err := runOne(w, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its stamp, metrics and result. It
// fails on any error, on an answer that disagrees with the oracle, and on a
// traced run whose layer spans do not account for the forward pass.
func runOne(w workload, seed uint64, seconds int, traced bool) error {
	trace := 0
	if traced {
		trace = 1
	}
	if b, err := json.Marshal(map[string]stamp{"stamp": newStamp(w, seed, seconds, trace)}); err == nil {
		fmt.Println(string(b))
	}
	window := time.Duration(seconds) * time.Second
	var res *result
	var err error
	if traced {
		out := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		res, err = runTraced(w, seed, window, out)
	} else {
		res, err = runEndToEnd(w, seed, window)
	}
	if err != nil {
		return err
	}
	if err := printResult(res, traced); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("answers disagree with the serial oracle")
	}
	if c, ok := res.Metrics["trace.coverage"]; ok && math.Abs(c.Value-1) > maxCoverageGap {
		return fmt.Errorf("trace self-check failed: the layer spans cover %.3f of the forward pass", c.Value)
	}
	return nil
}

// maxCoverageGap is how far the summed per-layer times may stray from the
// whole forward pass before the traced run is not trusted to explain it.
const maxCoverageGap = 0.1

func names() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// printResult prints every metric of the run's list by name and unit, then
// the JSON result as the last line.
func printResult(res *result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
		fmt.Printf("%-28s %16.6f %s\n", d.name, v.Value, v.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// newResult fills the metric units from defs.
func newResult(defs []metricDef, values map[string]float64) *result {
	r := &result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return r
}

// warmUp runs one batch-1 forward on every engine worker, then sends a few
// frames one after another over each client connection and checks each
// was answered. Sending them one at a time keeps the micro-batcher from
// pairing them, so set-up does the same work on every run.
func warmUp(st *stack, w workload, bodies [][]byte) error {
	st.eng.WarmBatch(1)
	for c := range w.clients {
		if w.wire == wireStream {
			as, err := runSession(st.addr, c, make([]time.Duration, warmFrames), bodies, time.Now(), time.Second, nil)
			if err != nil {
				return fmt.Errorf("warm-up session: %w", err)
			}
			for _, a := range as {
				if !a.ok {
					return fmt.Errorf("warm-up frame: %s %s", a.kind, a.err)
				}
			}
			continue
		}
		client, transport := httpClient(w)
		for k := range warmFrames {
			var a answer
			post(client, "http://"+st.addr+detectPath(w), bodies[(c+k)%len(bodies)], time.Now(), &a, nil)
			if !a.ok {
				transport.CloseIdleConnections()
				return fmt.Errorf("warm-up request: %d %s", a.code, a.err)
			}
		}
		transport.CloseIdleConnections()
	}
	return nil
}

// startWarm builds, starts and warms one stack.
func startWarm(w workload, bodies [][]byte, wrap func(http.Handler) http.Handler) (*stack, error) {
	st, err := startStack(w, wrap)
	if err != nil {
		return nil, err
	}
	if err := warmUp(st, w, bodies); err != nil {
		_ = st.stop()
		return nil, err
	}
	return st, nil
}

// oracleFor builds the serial oracle over fresh replicas of st's models.
func oracleFor(st *stack, w workload, bodies [][]byte) (*oracle, error) {
	var fp32 network.Model
	if w.int8 {
		fp32 = st.det.Model().CloneForInference()
	}
	return newOracle(w, st.model.CloneForInference(), fp32, st.det.Thresh, st.det.NMSThresh, bodies)
}

// runEndToEnd is the untraced run: set up setupReps times, drive the window
// on the last stack, check every answer, and take latencies from the
// segments of the window the hypervisor left alone (see keptSegments).
func runEndToEnd(w workload, seed uint64, window time.Duration) (*result, error) {
	bodies, err := encodeBodies(w, frames(w, seed))
	if err != nil {
		return nil, err
	}
	var st *stack
	var setups []float64
	for k := range setupReps {
		t0 := time.Now()
		if st, err = startWarm(w, bodies, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupReps-1 {
			if err := st.stop(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
	}
	ph, steal, err := driveSegmented(st, w, bodies, seed, window)
	if err != nil {
		_ = st.stop()
		return nil, err
	}
	svc := st.eng.ServiceP50()
	rss, err := peakRSSMB()
	if err != nil {
		_ = st.stop()
		return nil, err
	}
	if err := st.stop(); err != nil {
		return nil, err
	}
	o, err := oracleFor(st, w, bodies)
	if err != nil {
		return nil, err
	}
	v := o.check(ph, w.wire == wireStream)
	if v.firstErr != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", v.firstErr)
	}
	kept := keptSegments(steal)
	seg := window / segments
	var lat []float64
	batched := 0
	first := make([]time.Duration, segments)
	last := make([]time.Duration, segments)
	sends := make([]int, segments)
	for i, a := range ph.answers {
		ref := a.sent
		if ph.open {
			ref = a.due
		}
		k := min(int(ref/seg), segments-1)
		if !kept[k] {
			continue
		}
		l := float64(failedLatencyMs)
		if !v.bad[i] {
			l = ph.latencyMs(a)
			if sends[k] == 0 || a.sent < first[k] {
				first[k] = a.sent
			}
			last[k] = max(last[k], a.sent)
			sends[k]++
		}
		lat = append(lat, l)
		if a.batch > 1 {
			batched++
		}
	}
	lat = sortedCopy(lat)
	// An open loop's rate is its schedule's; a closed loop's is the
	// server's, so it is taken from the answered sends of the kept
	// segments only: sends after the first over the time they spanned.
	fps := float64(v.attempted-v.failed) / ph.elapsed().Seconds()
	if !ph.open {
		var n, span float64
		for k := range sends {
			if sends[k] > 1 {
				n += float64(sends[k] - 1)
				span += (last[k] - first[k]).Seconds()
			}
		}
		if span > 0 {
			fps = n / span
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: host steal per segment %s, kept %v; %d kept samples (tail percentile with >=10 beyond it: p%g), %d answered in batches >1, batch service p50 %v\n",
		percents(steal), kept, len(lat), tailPercentile(len(lat)), batched, svc)
	values := map[string]float64{
		"fps":                 fps,
		"latency_p50_ms":      percentile(lat, 50),
		"latency_p90_ms":      percentile(lat, 90),
		"answered_frac":       float64(v.attempted-v.failed) / float64(max(v.attempted, 1)),
		"setup_s":             median(setups),
		"peak_rss_mb":         rss,
		"detection_agreement": v.agreement,
	}
	res := newResult(endToEnd, values)
	res.Correct, res.Attempted, res.Failed = v.mismatches == 0, v.attempted, v.failed
	return res, nil
}

func percents(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.1f%%", 100*x)
	}
	return s + "]"
}

// traceHandler wraps the server's handler in a span whose parent is the
// client span named in the request headers.
func traceHandler(tr *Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(hdrSpan))
		if err != nil {
			parent = -1
		}
		frame, err := strconv.ParseInt(r.Header.Get(hdrFrame), 10, 64)
		if err != nil {
			frame = -1
		}
		id := tr.Begin("serve.handler", parent, frame)
		next.ServeHTTP(rw, r)
		tr.End(id)
	})
}

// runTraced is the traced run: half the window untraced, half traced on the
// same stack and schedule, then the per-layer passes.
func runTraced(w workload, seed uint64, window time.Duration, out string) (*result, error) {
	imgs := frames(w, seed)
	bodies, err := encodeBodies(w, imgs)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	st, err := startWarm(w, bodies, func(h http.Handler) http.Handler { return traceHandler(tr, h) })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	half := window / 2
	plain, err := drive(st, w, bodies, seed, half, tr)
	if err != nil {
		_ = st.stop()
		return nil, err
	}
	before, err := sampleProc(st.srv)
	if err != nil {
		_ = st.stop()
		return nil, err
	}
	tr.SetEnabled(true)
	traced, err := drive(st, w, bodies, seed, half, tr)
	tr.SetEnabled(false)
	if err != nil {
		_ = st.stop()
		return nil, err
	}
	after, err := sampleProc(st.srv)
	if err != nil {
		_ = st.stop()
		return nil, err
	}
	svc := st.eng.ServiceP50()
	if err := st.stop(); err != nil {
		return nil, err
	}
	o, err := oracleFor(st, w, bodies)
	if err != nil {
		return nil, err
	}
	stream := w.wire == wireStream
	vp, vt := o.check(plain, stream), o.check(traced, stream)
	for _, v := range []verdict{vp, vt} {
		if v.firstErr != "" {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", v.firstErr)
		}
	}

	d, err := newDirect(tr, w, st.det, st.model, imgs, bodies)
	if err != nil {
		return nil, err
	}
	if err := d.run(); err != nil {
		return nil, err
	}
	if err := tr.Write(out); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	values := map[string]float64{}
	servingMetrics(values, traced, vt, before, after, svc, half)
	fpsPlain := float64(vp.attempted-vp.failed) / plain.elapsed().Seconds()
	fpsTraced := float64(vt.attempted-vt.failed) / traced.elapsed().Seconds()
	values["trace.overhead_frac"] = (fpsPlain - fpsTraced) / fpsPlain
	if err := d.metrics(values, tr.Spans()); err != nil {
		return nil, err
	}
	res := newResult(perLayer, values)
	res.Correct = vp.mismatches == 0 && vt.mismatches == 0
	res.Attempted, res.Failed = vp.attempted+vt.attempted, vp.failed+vt.failed
	return res, nil
}

// servingMetrics derives the serving-path per-layer metrics of the traced
// phase from its answers and the counters sampled around it.
func servingMetrics(m map[string]float64, p *phaseResult, v verdict, before, after procSample, svc time.Duration, window time.Duration) {
	var late, wire, inServer []float64
	for i, a := range p.answers {
		late = append(late, float64(a.sent-a.due)/1e6)
		if !v.bad[i] {
			wire = append(wire, float64(a.done-a.sent)/1e6-a.serverMs)
			inServer = append(inServer, a.serverMs)
		}
	}
	late, wire, inServer = sortedCopy(late), sortedCopy(wire), sortedCopy(inServer)
	frames := float64(max(len(inServer), 1))
	b, a := before.stats, after.stats
	batches := float64(max(a.Batches-b.Batches, 1))
	m["loadgen.late_ms_p95"] = percentile(late, 95)
	m["loadgen.offered"] = float64(len(p.answers)) / window.Seconds()
	m["serve.wire_ms_p50"] = percentile(wire, 50)
	m["serve.body_kb"] = float64(p.bodyBytes) / float64(max(len(p.answers), 1)) / 1024
	m["serve.in_server_ms_p50"] = percentile(inServer, 50)
	m["serve.in_server_ms_p95"] = percentile(inServer, 95)
	m["engine.service_ms_p50"] = float64(svc) / 1e6
	m["serve.queue_ms_p50"] = m["serve.in_server_ms_p50"] - m["engine.service_ms_p50"]
	m["serve.mean_batch"] = (after.batched - before.batched) / batches
	m["serve.batch1_frac"] = float64(a.BatchHist[1]-b.BatchHist[1]) / batches
	m["serve.rejected"] = float64(a.Rejected - b.Rejected)
	m["serve.failed"] = float64(a.Failed - b.Failed)
	m["serve.deadline_exceeded"] = float64(a.DeadlineExceededTotal - b.DeadlineExceededTotal)
	m["serve.stream_dropped"] = float64(a.StreamFramesDropped - b.StreamFramesDropped)
	m["serve.stream_rejected"] = float64(a.StreamFramesRejected - b.StreamFramesRejected)
	m["runtime.alloc_kb_per_frame"] = float64(after.alloc-before.alloc) / 1024 / frames
	m["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / math.Max(after.totCPU-before.totCPU, 1e-9)
	m["runtime.cpu_ms_per_frame"] = float64(after.cpu-before.cpu) / 1e6 / frames
	m["engine.busy_frac"] = (a.BusySeconds - b.BusySeconds) / after.at.Sub(before.at).Seconds()
}
