package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/ws"
)

// Headers that carry the client span into the server-side handler span.
const (
	hdrSpan  = "X-Perfbench-Span"
	hdrFrame = "X-Perfbench-Frame"
)

// answer is what the load generator saw for one attempted frame. Times are
// offsets from the phase start.
type answer struct {
	req     int // request index within its session (or the phase)
	session int
	frame   int // distinct-frame index the request carried
	due     time.Duration
	sent    time.Duration
	done    time.Duration
	ok      bool // 200 or a stream result
	code    int
	kind    string // stream message type, or "http"
	// Server-reported fields of a successful answer.
	serverMs float64
	batch    int
	dets     []serve.DetectionJSON
	tracks   []serve.TrackJSON
	tracked  int // stream: the tracker frame number echoed on the result
	order    int // stream: arrival position among the session's results
	err      string
}

// phaseResult is one timed window of traffic.
type phaseResult struct {
	answers   []answer
	start     time.Time
	bodyBytes int64
	open      bool
}

// elapsed is the span of the phase, first send to last answer.
func (p *phaseResult) elapsed() time.Duration {
	var first, last time.Duration = -1, 0
	for _, a := range p.answers {
		if first < 0 || a.sent < first {
			first = a.sent
		}
		last = max(last, a.done)
	}
	if first < 0 {
		return 0
	}
	return last - first
}

// latencyMs is the client-observed latency of a, timed from its due time
// (open loop: includes any wait the generator or connection imposed) or from
// its send (closed loop).
func (p *phaseResult) latencyMs(a answer) float64 {
	from := a.sent
	if p.open {
		from = a.due
	}
	return float64(a.done-from) / 1e6
}

// poissonSchedule returns the due times of a Poisson arrival process of the
// given rate over window, conditioned on its expected count: exactly
// round(rate*window) arrivals placed uniformly at random, sorted. Fixing
// the count keeps offered load identical across seeds while the gaps stay
// exponential in the limit.
func poissonSchedule(seed uint64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	n := int(rate*window.Seconds() + 0.5)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(window)))
	}
	slices.Sort(out)
	return out
}

// periodicSchedule returns the due times of a fixed-rate camera with a
// seeded phase offset.
func periodicSchedule(seed uint64, session int, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, uint64(session)+1))
	period := time.Duration(float64(time.Second) / rate)
	var out []time.Duration
	for t := time.Duration(rng.Int64N(int64(period))); t < window; t += period {
		out = append(out, t)
	}
	return out
}

// sleepUntil blocks until the phase offset d.
func sleepUntil(start time.Time, d time.Duration) {
	if wait := time.Until(start.Add(d)); wait > 0 {
		time.Sleep(wait)
	}
}

// drive runs one window of the workload's traffic against st.
func drive(st *stack, w workload, bodies [][]byte, seed uint64, window time.Duration, tr *Tracer) (*phaseResult, error) {
	switch {
	case w.wire == wireStream:
		return driveStream(st, w, bodies, seed, window, tr)
	case w.open:
		return driveHTTPOpen(st, w, bodies, seed, window, tr)
	default:
		return driveHTTPClosed(st, w, bodies, window, tr)
	}
}

// httpClient allows at most w.clients connections to the server.
func httpClient(w workload) (*http.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: w.clients, MaxIdleConnsPerHost: w.clients, DisableCompression: true}
	return &http.Client{Transport: t, Timeout: 30 * time.Second}, t
}

func detectPath(w workload) string {
	if w.wire == wirePNG {
		return "/detect/raw"
	}
	return "/detect"
}

// post sends one frame and fills a's timing and outcome.
func post(c *http.Client, url string, body []byte, start time.Time, a *answer, tr *Tracer) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		a.err = err.Error()
		return
	}
	span := tr.Begin("loadgen.request", -1, int64(a.req))
	if span >= 0 {
		req.Header.Set(hdrSpan, strconv.Itoa(span))
		req.Header.Set(hdrFrame, strconv.Itoa(a.req))
	}
	a.sent = time.Since(start)
	resp, err := c.Do(req)
	if err != nil {
		a.done = time.Since(start)
		tr.End(span)
		a.err = err.Error()
		return
	}
	var out serve.DetectResponse
	derr := json.NewDecoder(resp.Body).Decode(&out)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	a.done = time.Since(start)
	tr.End(span)
	a.code = resp.StatusCode
	a.kind = "http"
	switch {
	case resp.StatusCode != http.StatusOK:
		a.err = resp.Status
	case derr != nil:
		a.err = fmt.Sprintf("decode answer: %v", derr)
	default:
		a.ok = true
		a.serverMs, a.batch, a.dets = out.LatencyMs, out.BatchSize, out.Detections
	}
}

// driveHTTPOpen sends frames at Poisson due times over at most w.clients
// connections; a frame whose connections are all busy waits, and that wait
// counts in its latency.
func driveHTTPOpen(st *stack, w workload, bodies [][]byte, seed uint64, window time.Duration, tr *Tracer) (*phaseResult, error) {
	sched := poissonSchedule(seed, w.rate, window)
	client, transport := httpClient(w)
	defer transport.CloseIdleConnections()
	url := "http://" + st.addr + detectPath(w)
	res := &phaseResult{answers: make([]answer, len(sched)), open: true}
	due := make(chan int, len(sched)) // sized to the schedule: the generator never blocks
	var wg sync.WaitGroup
	res.start = time.Now()
	for range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				a := &res.answers[i]
				post(client, url, bodies[a.frame], res.start, a, tr)
			}
		}()
	}
	for i, d := range sched {
		res.answers[i] = answer{req: i, frame: i % len(bodies), due: d}
		res.bodyBytes += int64(len(bodies[i%len(bodies)]))
		sleepUntil(res.start, d)
		due <- i
	}
	close(due)
	wg.Wait()
	return res, nil
}

// frameTick is the capture period of a closed-loop camera: after an
// answer, a client sends its next frame at its camera's next tick. The
// clients' clocks run half a tick apart. Free-running clients fall into
// step instead: arriving within the batcher's hold time of each other,
// they share one micro-batch on one worker, answer together and resend
// together, and whole runs flip between paired and unpaired regimes.
const frameTick = 25 * time.Millisecond

// driveHTTPClosed runs w.clients camera-clocked clients, each sending its
// next frame on the first tick of its clock after the previous answer. A
// request's "due" time is that tick.
func driveHTTPClosed(st *stack, w workload, bodies [][]byte, window time.Duration, tr *Tracer) (*phaseResult, error) {
	client, transport := httpClient(w)
	defer transport.CloseIdleConnections()
	url := "http://" + st.addr + detectPath(w)
	res := &phaseResult{}
	per := make([][]answer, w.clients)
	var wg sync.WaitGroup
	res.start = time.Now()
	for c := range w.clients {
		phase := time.Duration(c) * frameTick / time.Duration(w.clients)
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := phase
			for k := 0; due < window; k++ {
				f := (c + w.clients*k) % len(bodies)
				a := answer{req: k, session: c, frame: f, due: due}
				sleepUntil(res.start, due)
				post(client, url, bodies[f], res.start, &a, tr)
				per[c] = append(per[c], a)
				due += (a.done-due)/frameTick*frameTick + frameTick
			}
		}()
	}
	wg.Wait()
	for _, as := range per {
		for _, a := range as {
			res.bodyBytes += int64(len(bodies[a.frame]))
		}
		res.answers = append(res.answers, as...)
	}
	return res, nil
}

// driveStream opens w.clients WebSocket sessions; each sends frames at a
// fixed rate regardless of answers and reads answers concurrently.
func driveStream(st *stack, w workload, bodies [][]byte, seed uint64, window time.Duration, tr *Tracer) (*phaseResult, error) {
	res := &phaseResult{open: true}
	per := make([][]answer, w.clients)
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	res.start = time.Now()
	for s := range w.clients {
		sched := periodicSchedule(seed, s, w.rate, window)
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[s], errs[s] = runSession(st.addr, s, sched, bodies, res.start, window, tr)
		}()
	}
	wg.Wait()
	for s, as := range per {
		if errs[s] != nil {
			return nil, fmt.Errorf("session %d: %w", s, errs[s])
		}
		for _, a := range as {
			res.bodyBytes += int64(len(bodies[a.frame]))
		}
		res.answers = append(res.answers, as...)
	}
	return res, nil
}

// withSeq splices a sequence number into a pre-encoded StreamFrame body
// (encoded with Seq 0, which the wire omits).
func withSeq(buf, body []byte, seq int) []byte {
	buf = append(buf[:0], `{"seq":`...)
	buf = strconv.AppendInt(buf, int64(seq), 10)
	buf = append(buf, ',')
	return append(buf, body[1:]...)
}

// runSession streams one camera's schedule and collects one answer per
// frame (result, reject, drop or error).
func runSession(addr string, s int, sched []time.Duration, bodies [][]byte, start time.Time, window time.Duration, tr *Tracer) ([]answer, error) {
	conn, err := ws.Dial(addr, fmt.Sprintf("/stream?camera=perfbench%d", s), nil, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	raw, err := conn.ReadMessage()
	if err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	var hello serve.StreamMessage
	if err := json.Unmarshal(raw, &hello); err != nil || hello.Type != serve.MsgHello {
		return nil, fmt.Errorf("bad hello %q: %v", raw, err)
	}
	offset := s * len(bodies) / 2
	answers := make([]answer, len(sched))
	spans := make([]int, len(sched))
	for k, d := range sched {
		answers[k] = answer{req: k, session: s, frame: (offset + k) % len(bodies), due: d}
	}
	var (
		mu      sync.Mutex
		got     int
		results int
	)
	allIn := make(chan struct{})
	readerExit := make(chan struct{})
	var rerr error // written by the reader before it closes readerExit
	go func() {
		defer close(readerExit)
		for {
			raw, err := conn.ReadMessage()
			if err != nil {
				return
			}
			done := time.Since(start)
			var msg serve.StreamMessage
			if err := json.Unmarshal(raw, &msg); err != nil {
				rerr = fmt.Errorf("bad message: %w", err)
				return
			}
			if msg.Type == serve.MsgBye {
				continue
			}
			k := msg.Seq - 1
			if k < 0 || k >= len(answers) {
				rerr = fmt.Errorf("answer %q for unknown seq %d", msg.Type, msg.Seq)
				return
			}
			mu.Lock()
			a := &answers[k]
			if a.kind != "" {
				mu.Unlock()
				rerr = fmt.Errorf("second answer for seq %d", msg.Seq)
				return
			}
			a.done, a.kind, a.code, a.err = done, msg.Type, msg.Code, msg.Error
			if msg.Type == serve.MsgResult {
				a.ok, a.code = true, http.StatusOK
				a.serverMs, a.batch, a.dets, a.tracks = msg.LatencyMs, msg.BatchSize, msg.Detections, msg.Tracks
				a.tracked, a.order = msg.Frame, results
				results++
			}
			tr.End(spans[k])
			got++
			if got == len(answers) {
				close(allIn)
			}
			mu.Unlock()
		}
	}()
	var buf []byte
	var werr error
	for k, d := range sched {
		sleepUntil(start, d)
		buf = withSeq(buf, bodies[answers[k].frame], k+1)
		mu.Lock()
		answers[k].sent = time.Since(start)
		spans[k] = tr.Begin("loadgen.request", -1, int64(s)<<32|int64(k))
		mu.Unlock()
		if werr = conn.WriteMessage(buf); werr != nil {
			break
		}
	}
	if len(sched) == 0 {
		close(allIn)
	}
	if werr == nil {
		select {
		case <-allIn:
		case <-readerExit:
		case <-time.After(window + 30*time.Second):
		}
	}
	_ = conn.WriteClose(1000, "perfbench done")
	// The server answers the close with a bye and its own close frame; the
	// deadline bounds the wait should it not.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	<-readerExit
	mu.Lock()
	defer mu.Unlock()
	// A frame the session never answered counts as failed.
	for k := range answers {
		if answers[k].kind == "" {
			answers[k].done = time.Since(start)
			answers[k].err = "no answer"
		}
	}
	switch {
	case werr != nil:
		return nil, fmt.Errorf("send: %w", werr)
	case rerr != nil:
		return nil, rerr
	}
	return answers, nil
}
