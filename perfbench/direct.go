package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/imgproc"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/tracking"
)

// numLayers is DroNet's layer count (nine convolutions, five max-pools and
// the region layer); metric names enumerate them.
const numLayers = 15

// tracedModel wraps a model so each DetectBatch records a span nested under
// the span *parent names, which lets the engine's own share of an
// ExecuteBatch call (copying frames into the batch tensor, dispatch) show
// as the self time of the span around that call.
type tracedModel struct {
	network.Model
	tr     *Tracer
	parent *int
}

func (m *tracedModel) DetectBatch(x *tensor.Tensor, thresh, nms float64) ([][]detect.Detection, error) {
	id := m.tr.Begin(batchName("model.detect_batch", x.N), *m.parent, -1)
	defer m.tr.End(id)
	return m.Model.DetectBatch(x, thresh, nms)
}

func (m *tracedModel) CloneForInference() network.Model {
	return &tracedModel{Model: m.Model.CloneForInference(), tr: m.tr, parent: m.parent}
}

// batchName tags a span name with its batch size, e.g. "network.forward/b8".
func batchName(name string, n int) string {
	switch n {
	case 1:
		return name + "/b1"
	case maxBatch:
		return name + "/bmax"
	}
	return fmt.Sprintf("%s/b%d", name, n)
}

// layerNames caches "layers.NN" span names.
var layerNames = func() []string {
	out := make([]string, numLayers)
	for i := range out {
		out[i] = fmt.Sprintf("layers.%02d", i)
	}
	return out
}()

// kernelCase is one convolution's GEMM lowering, captured from a real
// forward pass so the kernels run on real activations.
type kernelCase struct {
	in                      []float32
	c, h, w, k, stride, pad int
	pointwise               bool
	col                     []float32
	pack                    *tensor.PackedA
	m, n                    int
	out                     []float32
}

// edgeCase is one int8 convolution's input quantization.
type edgeCase struct {
	in    []float32
	scale float32
	out   []int8
}

// direct runs the traced per-layer passes: every call goes straight into a
// layer's public function from here, wrapped in a span.
type direct struct {
	tr      *Tracer
	w       workload
	det     *core.Detector
	fp      *network.Network // fp32 replica
	q       *quant.QNet      // int8 replica: the served model, or its twin on fp32 workloads
	eng     *engine.Engine
	parent  int // span the traced model nests under
	imgs    []*imgproc.Image
	bodies  [][]byte
	kernels []kernelCase
	edges   []edgeCase
	flops   []int64 // per layer, one image
	tracker *tracking.Tracker
	pre     []float64 // boxes before NMS, per pass
	post    []float64
	live    []float64
}

func newDirect(tr *Tracer, w workload, det *core.Detector, served network.Model, imgs []*imgproc.Image, bodies [][]byte) (*direct, error) {
	d := &direct{tr: tr, w: w, det: det, imgs: imgs, bodies: bodies, parent: -1, tracker: tracking.New(tracking.Config{})}
	d.fp = det.Net.CloneForInference().(*network.Network)
	if len(d.fp.Layers) != numLayers {
		return nil, fmt.Errorf("direct: model has %d layers, metrics name %d", len(d.fp.Layers), numLayers)
	}
	var qm network.Model = served
	if !w.int8 {
		var err error
		if qm, err = quantize(det, w.size); err != nil {
			return nil, err
		}
	}
	d.q = qm.CloneForInference().(*quant.QNet)
	tm := &tracedModel{Model: served, tr: tr, parent: &d.parent}
	var err error
	d.eng, err = engine.New(tm, engine.Config{Workers: 1, Thresh: det.Thresh, NMSThresh: det.NMSThresh})
	if err != nil {
		return nil, err
	}
	for _, l := range d.fp.Layers {
		d.flops = append(d.flops, l.FLOPs())
	}
	d.captureKernels(imgs[0].ToTensor())
	d.captureEdges(imgs[0].ToTensor())
	return d, nil
}

// captureKernels records each fp32 convolution's input on a throwaway
// replica and prepares its im2col and GEMM operands.
func (d *direct) captureKernels(x *tensor.Tensor) {
	net := d.det.Net.CloneForInference().(*network.Network)
	cur := x
	for _, l := range net.Layers {
		if c, ok := l.(*layers.Conv2D); ok {
			in := c.InShape()
			kc := kernelCase{
				in: append([]float32(nil), cur.Data...),
				c:  in.C, h: in.H, w: in.W, k: c.Ksize, stride: c.Stride, pad: c.Pad,
				pointwise: c.Ksize == 1 && c.Stride == 1 && c.Pad == 0,
				m:         c.Filters, n: c.OutShape().H * c.OutShape().W,
			}
			kdim := in.C * c.Ksize * c.Ksize
			kc.pack = tensor.PackA(false, kc.m, kdim, 1, c.Weights.W.Data, kdim)
			if !kc.pointwise {
				kc.col = make([]float32, kdim*kc.n)
			}
			kc.out = make([]float32, kc.m*kc.n)
			d.kernels = append(d.kernels, kc)
		}
		cur = l.Forward(cur, false)
	}
}

// captureEdges records each int8 convolution's float input on a throwaway
// replica.
func (d *direct) captureEdges(x *tensor.Tensor) {
	q := d.q.CloneForInference().(*quant.QNet)
	ci, oi := 0, 0
	cur := x
	for _, isConv := range q.Order {
		if isConv {
			qc := q.Convs[ci]
			d.edges = append(d.edges, edgeCase{in: append([]float32(nil), cur.Data...), scale: qc.ActScale, out: make([]int8, len(cur.Data))})
			cur = qc.Forward(cur)
			ci++
		} else {
			cur = q.Others[oi].Forward(cur, false)
			oi++
		}
	}
}

// servedLayers steps through the served precision's layers one call at a
// time, each in a span under root. It must follow a whole-model Forward of
// the same replica: only that resets the replica's scratch arena, so the
// arena holds at most two passes' carves and stops growing.
func (d *direct) servedLayers(x *tensor.Tensor, root int) *tensor.Tensor {
	cur := x
	if !d.w.int8 {
		for i, l := range d.fp.Layers {
			id := d.tr.Begin(batchName(layerNames[i], x.N), root, -1)
			cur = l.Forward(cur, false)
			d.tr.End(id)
		}
		return cur
	}
	ci, oi := 0, 0
	for i, isConv := range d.q.Order {
		id := d.tr.Begin(batchName(layerNames[i], x.N), root, -1)
		if isConv {
			cur = d.q.Convs[ci].Forward(cur)
			ci++
		} else {
			cur = d.q.Others[oi].Forward(cur, false)
			oi++
		}
		d.tr.End(id)
	}
	return cur
}

// region is the served model's region layer.
func (d *direct) region() *layers.Region {
	if d.w.int8 {
		return d.q.Region()
	}
	return d.fp.Region()
}

// batchInput packs n frames starting at frame i into one tensor.
func (d *direct) batchInput(i, n int) *tensor.Tensor {
	in := d.fp.InShape()
	x := tensor.New(n, in.C, in.H, in.W)
	for b := range n {
		copy(x.Batch(b).Data, d.imgs[(i+b)%len(d.imgs)].Pix)
	}
	return x
}

// pass runs one traced round at batch n on frames starting at i.
func (d *direct) pass(i, n int) error {
	x := d.batchInput(i, n)
	span := func(name string, fn func()) {
		id := d.tr.Begin(name, -1, int64(i))
		fn()
		d.tr.End(id)
	}
	// The served precision's per-layer pass directly follows its own
	// whole-model pass, so trace.coverage compares the two in the same
	// cache and clock state; the other precision runs after them.
	forwardFP32 := func() { span(batchName("network.forward", n), func() { d.fp.Forward(x, false) }) }
	forwardInt8 := func() { span(batchName("quant.forward", n), func() { d.q.Forward(x) }) }
	served, other := forwardFP32, forwardInt8
	if d.w.int8 {
		served, other = forwardInt8, forwardFP32
	}
	served()
	root := d.tr.Begin(batchName("layers", n), -1, int64(i))
	out := d.servedLayers(x, root)
	d.tr.End(root)
	other()

	batch := d.imgs[i%len(d.imgs) : i%len(d.imgs)+1]
	if n > 1 {
		batch = make([]*imgproc.Image, n)
		for b := range batch {
			batch[b] = d.imgs[(i+b)%len(d.imgs)]
		}
	}
	d.parent = d.tr.Begin(batchName("engine.execute", n), -1, int64(i))
	_, execErr := d.eng.ExecuteBatch(0, batch, nil)
	d.tr.End(d.parent)
	d.parent = -1
	if execErr != nil || n > 1 {
		return execErr
	}

	var raw, dets []detect.Detection
	span("detect.decode", func() { raw = d.region().Decode(out, 0, d.det.Thresh) })
	span("detect.nms", func() { dets = detect.NMS(raw, d.det.NMSThresh) })
	d.pre = append(d.pre, float64(len(raw)))
	d.post = append(d.post, float64(len(dets)))
	var tracks []*tracking.Track
	span("tracking.update", func() { tracks = d.tracker.Update(dets) })
	d.live = append(d.live, float64(d.tracker.Live()))

	span("tensor.im2col", func() {
		for _, kc := range d.kernels {
			if !kc.pointwise {
				tensor.Im2col(kc.in, kc.c, kc.h, kc.w, kc.k, kc.stride, kc.pad, kc.col)
			}
		}
	})
	span("tensor.gemm", func() {
		for _, kc := range d.kernels {
			b := kc.col
			if kc.pointwise {
				b = kc.in
			}
			tensor.GemmPrepacked(kc.pack, false, kc.n, b, kc.n, 0, kc.out, kc.n)
		}
	})
	span("quant.edge", func() {
		for _, e := range d.edges {
			quant.QuantizeSymmetric(e.in, e.scale, e.out)
		}
	})
	return d.wire(i, dets, tracks)
}

// wire times the server's decode of this frame's request body and its
// encode of the answer, with the same public types and codecs.
func (d *direct) wire(i int, dets []detect.Detection, tracks []*tracking.Track) error {
	body := d.bodies[i%len(d.bodies)]
	var derr error
	id := d.tr.Begin("serve.decode", -1, int64(i))
	switch d.w.wire {
	case wireJSON:
		var req serve.DetectRequest
		derr = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	case wireStream:
		var f serve.StreamFrame
		derr = json.Unmarshal(body, &f)
	case wirePNG:
		if _, _, derr = image.DecodeConfig(bytes.NewReader(body)); derr == nil {
			var src image.Image
			if src, _, derr = image.Decode(bytes.NewReader(body)); derr == nil {
				imgproc.FromGoImage(src)
			}
		}
	}
	d.tr.End(id)
	if derr != nil {
		return fmt.Errorf("decode frame %d: %w", i, derr)
	}
	var eerr error
	id = d.tr.Begin("serve.encode", -1, int64(i))
	if d.w.wire == wireStream {
		_, eerr = json.Marshal(&serve.StreamMessage{Type: serve.MsgResult, Seq: i + 1, Frame: d.tracker.Frame(),
			BatchSize: 1, LatencyMs: 1, Detections: toWire(dets), Tracks: tracksToWire(tracks)})
	} else {
		eerr = json.NewEncoder(io.Discard).Encode(serve.DetectResponse{Detections: toWire(dets), Model: "default", Generation: 1, BatchSize: 1, LatencyMs: 1})
	}
	d.tr.End(id)
	return eerr
}

// run makes the traced rounds: batch-1 rounds over successive frames, then
// max-batch rounds, each for at least min rounds and until its budget is
// spent. One untraced round of each warms the replicas first.
func (d *direct) run() error {
	for _, r := range []struct {
		n, min int
		budget time.Duration
	}{{1, 9, 4 * time.Second}, {maxBatch, 3, 4 * time.Second}} {
		d.tr.SetEnabled(false)
		if err := d.pass(0, r.n); err != nil {
			return err
		}
		if r.n == 1 {
			// Count boxes and tracks over the traced rounds only.
			d.pre, d.post, d.live = nil, nil, nil
			d.tracker = tracking.New(tracking.Config{})
		}
		d.tr.SetEnabled(true)
		start := time.Now()
		for i := 0; i < r.min || (time.Since(start) < r.budget && i < 200); i++ {
			if err := d.pass(i, r.n); err != nil {
				return err
			}
		}
	}
	d.tr.SetEnabled(false)
	return nil
}

// metrics derives the per-layer metrics from the traced rounds' spans.
// Max-batch times are per image, so they read on the batch-1 scale.
func (d *direct) metrics(m map[string]float64, spans []Span) error {
	st := summarize(spans)
	var firstErr error
	us := func(name string, per float64) float64 {
		v, err := st.medianUs(name)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v / per
	}
	const bmax = float64(maxBatch)
	m["network.forward_us_b1"] = us("network.forward/b1", 1)
	m["network.forward_us_bmax"] = us("network.forward/bmax", bmax)
	m["quant.forward_us_b1"] = us("quant.forward/b1", 1)
	m["quant.forward_us_bmax"] = us("quant.forward/bmax", bmax)
	m["engine.execute_us_b1"] = us("engine.execute/b1", 1)
	m["engine.execute_us_bmax"] = us("engine.execute/bmax", bmax)
	self, err := st.medianSelfUs("engine.execute/b1")
	if err != nil {
		return err
	}
	m["engine.self_us"] = self
	for i := range numLayers {
		m[fmt.Sprintf("layers.%02d_us_b1", i)] = us(batchName(layerNames[i], 1), 1)
		m[fmt.Sprintf("layers.%02d_us_bmax", i)] = us(batchName(layerNames[i], maxBatch), bmax)
	}
	for _, i := range convLayers {
		m[fmt.Sprintf("layers.%02d_gops", i)] = float64(d.flops[i]) / (m[fmt.Sprintf("layers.%02d_us_b1", i)] * 1e3)
	}
	m["trace.coverage"] = d.coverage(spans)

	var colElems, gemmOps float64
	for _, kc := range d.kernels {
		if !kc.pointwise {
			colElems += float64(len(kc.col))
		}
		gemmOps += 2 * float64(kc.m) * float64(kc.n) * float64(kc.pack.K())
	}
	m["tensor.im2col_us"] = us("tensor.im2col", 1)
	m["tensor.im2col_ns_per_elem"] = m["tensor.im2col_us"] * 1e3 / colElems
	m["tensor.gemm_us"] = us("tensor.gemm", 1)
	m["tensor.gemm_gops"] = gemmOps / (m["tensor.gemm_us"] * 1e3)
	m["quant.edge_us"] = us("quant.edge", 1)
	m["detect.decode_us"] = us("detect.decode", 1)
	m["detect.nms_us"] = us("detect.nms", 1)
	m["detect.boxes_pre_nms"] = mean(d.pre)
	m["detect.boxes_post_nms"] = mean(d.post)
	m["tracking.update_us"] = us("tracking.update", 1)
	m["tracking.live_tracks"] = mean(d.live)
	m["serve.decode_us"] = us("serve.decode", 1)
	m["serve.encode_us"] = us("serve.encode", 1)
	return firstErr
}

// coverage is the median over batch-1 rounds of the summed layer spans
// over the served model's whole forward pass. Pairing each round's
// per-layer pass with the forward pass run just before it cancels host
// speed drifting between rounds.
func (d *direct) coverage(spans []Span) float64 {
	fwdName := "network.forward/b1"
	if d.w.int8 {
		fwdName = "quant.forward/b1"
	}
	root := batchName("layers", 1)
	fwd := map[int64]float64{}
	roots := map[int]int64{} // root span id -> round
	for _, s := range spans {
		switch s.Name {
		case fwdName:
			fwd[s.Frame] = float64(s.Dur())
		case root:
			roots[s.ID] = s.Frame
		}
	}
	summed := map[int64]float64{}
	for _, s := range spans {
		if round, ok := roots[s.Parent]; ok {
			summed[round] += float64(s.Dur())
		}
	}
	var ratios []float64
	for round, f := range fwd {
		if l, ok := summed[round]; ok && f > 0 {
			ratios = append(ratios, l/f)
		}
	}
	return median(ratios)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
