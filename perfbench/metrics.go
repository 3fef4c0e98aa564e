package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics with their bounds; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"fps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"answered_frac", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"detection_agreement", "ratio", "higher"},
}

// convLayers are DroNet's convolution indices.
var convLayers = []int{0, 2, 4, 5, 7, 8, 10, 11, 13}

// perLayer are the metrics of the traced run, one layer at a time.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"loadgen.late_ms_p95", "ms", "lower"},
		{"loadgen.offered", "1/s", "higher"},
		{"serve.wire_ms_p50", "ms", "lower"},
		{"serve.decode_us", "us", "lower"},
		{"serve.encode_us", "us", "lower"},
		{"serve.body_kb", "KiB", "lower"},
		{"serve.in_server_ms_p50", "ms", "lower"},
		{"serve.in_server_ms_p95", "ms", "lower"},
		{"serve.queue_ms_p50", "ms", "lower"},
		{"serve.mean_batch", "count", "higher"},
		{"serve.batch1_frac", "ratio", "lower"},
		{"serve.rejected", "count", "lower"},
		{"serve.failed", "count", "lower"},
		{"serve.deadline_exceeded", "count", "lower"},
		{"serve.stream_dropped", "count", "lower"},
		{"serve.stream_rejected", "count", "lower"},
		{"runtime.alloc_kb_per_frame", "KiB", "lower"},
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"runtime.cpu_ms_per_frame", "ms", "lower"},
		{"engine.service_ms_p50", "ms", "lower"},
		{"engine.busy_frac", "ratio", "lower"},
		{"engine.execute_us_b1", "us/img", "lower"},
		{"engine.execute_us_bmax", "us/img", "lower"},
		{"engine.self_us", "us", "lower"},
		{"network.forward_us_b1", "us/img", "lower"},
		{"network.forward_us_bmax", "us/img", "lower"},
	}
	for i := range numLayers {
		m = append(m,
			metricDef{fmt.Sprintf("layers.%02d_us_b1", i), "us/img", "lower"},
			metricDef{fmt.Sprintf("layers.%02d_us_bmax", i), "us/img", "lower"})
	}
	for _, i := range convLayers {
		m = append(m, metricDef{fmt.Sprintf("layers.%02d_gops", i), "GOP/s", "higher"})
	}
	return append(m,
		metricDef{"tensor.im2col_us", "us", "lower"},
		metricDef{"tensor.im2col_ns_per_elem", "ns", "lower"},
		metricDef{"tensor.gemm_us", "us", "lower"},
		metricDef{"tensor.gemm_gops", "GOP/s", "higher"},
		metricDef{"quant.forward_us_b1", "us/img", "lower"},
		metricDef{"quant.forward_us_bmax", "us/img", "lower"},
		metricDef{"quant.edge_us", "us", "lower"},
		metricDef{"detect.decode_us", "us", "lower"},
		metricDef{"detect.nms_us", "us", "lower"},
		metricDef{"detect.boxes_pre_nms", "count", "lower"},
		metricDef{"detect.boxes_post_nms", "count", "lower"},
		metricDef{"tracking.update_us", "us", "lower"},
		metricDef{"tracking.live_tracks", "count", "lower"},
		metricDef{"trace.coverage", "ratio", "higher"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}()

// procSample is a snapshot of the process and server counters.
type procSample struct {
	at      time.Time
	cpu     time.Duration // user+system CPU of the whole process
	gcCPU   float64       // seconds
	totCPU  float64       // seconds
	alloc   uint64        // cumulative heap allocation, bytes
	stats   serve.Stats
	batched float64 // images executed in batches so far
}

func sampleProc(srv *serve.Server) (procSample, error) {
	s := procSample{at: time.Now(), stats: srv.Stats()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ms)
	s.gcCPU, s.totCPU, s.alloc = ms[0].Value.Float64(), ms[1].Value.Float64(), ms[2].Value.Uint64()
	s.batched = s.stats.MeanBatchSize * float64(s.stats.Batches)
	return s, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// An untraced window is measured in segments, and the latencies (and a
// closed loop's rate) come only from segments during which the hypervisor
// stole at most maxSteal of the host's CPU time, or from the least-stolen
// segment when none qualifies. On a shared 2-vCPU host, steal
// episodes of 5-25% lasting tens of seconds have been seen to lengthen the
// one-shot p90 latency by half; failures and correctness count over the
// whole window regardless.
const (
	segments = 4
	maxSteal = 0.02
)

// hostCPU reads the host's cumulative steal and total CPU time (jiffies)
// from /proc/stat; ok is false where it is unavailable.
func hostCPU() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// driveSegmented drives one untraced window and returns it with the share
// of host CPU time stolen in each of its segments (nil where unknown).
func driveSegmented(st *stack, w workload, bodies [][]byte, seed uint64, window time.Duration) (*phaseResult, []float64, error) {
	type sample struct {
		steal, total uint64
		ok           bool
	}
	samples := make([]sample, segments+1)
	start := time.Now()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := range samples {
			sleepUntil(start, time.Duration(k)*window/segments)
			samples[k].steal, samples[k].total, samples[k].ok = hostCPU()
		}
	}()
	ph, err := drive(st, w, bodies, seed, window, nil)
	<-sampled
	if err != nil {
		return nil, nil, err
	}
	shares := make([]float64, segments)
	for k := range shares {
		a, b := samples[k], samples[k+1]
		if !a.ok || !b.ok || b.total <= a.total {
			return ph, nil, nil
		}
		shares[k] = float64(b.steal-a.steal) / float64(b.total-a.total)
	}
	return ph, shares, nil
}

// keptSegments marks the segments whose steal share is at most maxSteal,
// or the least-stolen one when none qualifies; every segment when steal is
// unknown.
func keptSegments(steal []float64) []bool {
	kept := make([]bool, segments)
	least := 0
	found := false
	for k := range kept {
		if steal == nil || steal[k] <= maxSteal {
			kept[k], found = true, true
		}
		if steal != nil && steal[k] < steal[least] {
			least = k
		}
	}
	if !found {
		kept[least] = true
	}
	return kept
}
