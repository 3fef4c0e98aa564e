package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer: its name, interval (nanoseconds since
// the tracer's epoch), the span that caused it (-1 for a root) and the frame
// it served (-1 when it served no single frame).
type Span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Frame  int64  `json:"frame"`
}

// Dur is the span's wall duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; while disabled Begin returns -1 and End ignores it, so
// instrumented paths cost one atomic load.
type Tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SetEnabled switches recording on or off.
func (t *Tracer) SetEnabled(on bool) { t.on.Store(on) }

// Begin opens a span and returns its id (-1 while disabled).
func (t *Tracer) Begin(name string, parent int, frame int64) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Name: name, Start: start, End: -1, Parent: parent, Frame: frame})
	t.mu.Unlock()
	return id
}

// End closes span id; ids of -1 are ignored.
func (t *Tracer) End(id int) {
	if id < 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Write stores the spans as JSON lines at path.
func (t *Tracer) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds, keyed by span id:
// its duration minus the part of its interval that its children cover
// (overlapping children are counted once).
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curS, curE int64
		open := false
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curS, curE, open = lo, hi, true
			case lo <= curE:
				curE = max(curE, hi)
			default:
				covered += curE - curS
				curS, curE = lo, hi
			}
		}
		if open {
			covered += curE - curS
		}
		out[s.ID] = s.Dur() - covered
	}
	return out
}

// spanStats summarizes spans by name.
type spanStats struct {
	dur  map[string][]float64 // durations, ns
	self map[string][]float64 // self times, ns
}

func summarize(spans []Span) spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.Dur()))
		st.self[s.Name] = append(st.self[s.Name], float64(self[s.ID]))
	}
	return st
}

// medianUs is the median duration of the named spans in microseconds.
func (st spanStats) medianUs(name string) (float64, error) {
	d := st.dur[name]
	if len(d) == 0 {
		return 0, fmt.Errorf("trace: no %q spans", name)
	}
	return median(d) / 1e3, nil
}

// medianSelfUs is the median self time of the named spans in microseconds.
func (st spanStats) medianSelfUs(name string) (float64, error) {
	d := st.self[name]
	if len(d) == 0 {
		return 0, fmt.Errorf("trace: no %q spans", name)
	}
	return median(d) / 1e3, nil
}
