package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image"
	_ "image/png" // the PNG decoder /detect/raw uses
	"slices"

	"repro/internal/detect"
	"repro/internal/imgproc"
	"repro/internal/network"
	"repro/internal/serve"
	"repro/internal/tracking"
)

// agreementIoU is the IoU at which a served detection agrees with the fp32
// serial one.
const agreementIoU = 0.9

// oracle holds, per distinct frame, what a serial batch-1 run of the served
// model produces on the pixels the server decodes from that frame's body,
// and what the fp32 model produces on them.
type oracle struct {
	want   [][]byte // wire JSON of the served model's detections
	dets   [][]detect.Detection
	fpDets [][]detect.Detection
}

// decodeBody turns a request body into the image the server would build
// from it, with the same decoders.
func decodeBody(w workload, body []byte) (*imgproc.Image, error) {
	switch w.wire {
	case wireJSON:
		var req serve.DetectRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return nil, err
		}
		return &imgproc.Image{W: req.Width, H: req.Height, Pix: req.Pixels}, nil
	case wireStream:
		var f serve.StreamFrame
		if err := json.Unmarshal(body, &f); err != nil {
			return nil, err
		}
		return &imgproc.Image{W: f.Width, H: f.Height, Pix: f.Pixels}, nil
	case wirePNG:
		src, _, err := image.Decode(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		return imgproc.FromGoImage(src), nil
	}
	return nil, fmt.Errorf("unknown wire %q", w.wire)
}

// serialDetect runs one image through m at batch 1.
func serialDetect(m network.Model, img *imgproc.Image, thresh, nms float64) ([]detect.Detection, error) {
	in := m.InShape()
	if img.W != in.W || img.H != in.H {
		img = img.Resize(in.W, in.H)
	}
	per, err := m.DetectBatch(img.ToTensor(), thresh, nms)
	if err != nil {
		return nil, err
	}
	return per[0], nil
}

// newOracle runs served (and, when it is not fp32 itself, fp32) serially
// over every distinct body.
func newOracle(w workload, served, fp32 network.Model, thresh, nms float64, bodies [][]byte) (*oracle, error) {
	o := &oracle{}
	for i, body := range bodies {
		img, err := decodeBody(w, body)
		if err != nil {
			return nil, fmt.Errorf("oracle: frame %d: %w", i, err)
		}
		dets, err := serialDetect(served, img, thresh, nms)
		if err != nil {
			return nil, fmt.Errorf("oracle: frame %d: %w", i, err)
		}
		fp := dets
		if fp32 != nil {
			if fp, err = serialDetect(fp32, img, thresh, nms); err != nil {
				return nil, fmt.Errorf("oracle: fp32 frame %d: %w", i, err)
			}
		}
		want, err := json.Marshal(toWire(dets))
		if err != nil {
			return nil, err
		}
		o.want = append(o.want, want)
		o.dets = append(o.dets, dets)
		o.fpDets = append(o.fpDets, fp)
	}
	return o, nil
}

// toWire converts detections the way the server does (never nil).
func toWire(dets []detect.Detection) []serve.DetectionJSON {
	out := make([]serve.DetectionJSON, len(dets))
	for i, d := range dets {
		out[i] = serve.DetectionJSON{X: d.Box.X, Y: d.Box.Y, W: d.Box.W, H: d.Box.H, Class: d.Class, Score: d.Score}
	}
	return out
}

func fromWire(dets []serve.DetectionJSON) []detect.Detection {
	out := make([]detect.Detection, len(dets))
	for i, d := range dets {
		out[i] = detect.Detection{Box: detect.Box{X: d.X, Y: d.Y, W: d.W, H: d.H}, Class: d.Class, Score: d.Score}
	}
	return out
}

// tracksToWire converts confirmed tracks the way the session tier does.
func tracksToWire(tracks []*tracking.Track) []serve.TrackJSON {
	out := make([]serve.TrackJSON, len(tracks))
	for i, tr := range tracks {
		out[i] = serve.TrackJSON{
			ID: tr.ID, X: tr.Box.X, Y: tr.Box.Y, W: tr.Box.W, H: tr.Box.H,
			Class: tr.Class, Score: tr.Score, VX: tr.VX, VY: tr.VY,
			Hits: tr.Hits, Age: tr.LastFrame - tr.FirstFrame,
		}
	}
	return out
}

// wireJSONOf marshals a wire list, treating an omitted (nil) list as empty.
func wireJSONOf[T any](xs []T) []byte {
	if xs == nil {
		xs = []T{}
	}
	b, err := json.Marshal(xs)
	if err != nil {
		panic(fmt.Sprintf("marshal wire list: %v", err)) // plain structs always marshal
	}
	return b
}

// verdict is the oracle's judgement of one phase.
type verdict struct {
	attempted  int
	failed     int // every failed attempt: refused, errored or mismatched
	mismatches int // answers that disagree with the oracle
	agreement  float64
	firstErr   string
	bad        []bool // per answer: failed for any reason
}

func (v *verdict) fail(i int, mismatch bool, format string, args ...any) {
	v.bad[i] = true
	v.failed++
	if mismatch {
		v.mismatches++
	}
	if v.firstErr == "" {
		v.firstErr = fmt.Sprintf(format, args...)
	}
}

// check compares every answer with the oracle. Detections must match the
// serial run byte for byte; on streams the tracks of each result must equal
// a fresh tracker replayed over that session's answered frames in order.
func (o *oracle) check(p *phaseResult, stream bool) verdict {
	v := verdict{attempted: len(p.answers), bad: make([]bool, len(p.answers))}
	var fp, got [][]detect.Detection
	for i, a := range p.answers {
		if !a.ok {
			v.fail(i, false, "frame %d/%d: %s %d %s", a.session, a.req, a.kind, a.code, a.err)
			continue
		}
		if !bytes.Equal(wireJSONOf(a.dets), o.want[a.frame]) {
			v.fail(i, true, "frame %d/%d: detections differ from the serial oracle", a.session, a.req)
			continue
		}
		fp = append(fp, o.fpDets[a.frame])
		got = append(got, fromWire(a.dets))
	}
	v.agreement = detect.Agreement(fp, got, agreementIoU)
	if !stream {
		return v
	}
	bySession := map[int][]int{}
	for i, a := range p.answers {
		if a.ok {
			bySession[a.session] = append(bySession[a.session], i)
		}
	}
	for _, idx := range bySession {
		slices.SortFunc(idx, func(x, y int) int { return p.answers[x].order - p.answers[y].order })
		replay := tracking.New(tracking.Config{})
		for _, i := range idx {
			a := p.answers[i]
			want := wireJSONOf(tracksToWire(replay.Update(o.dets[a.frame])))
			if v.bad[i] {
				continue
			}
			if a.tracked != replay.Frame() || !bytes.Equal(wireJSONOf(a.tracks), want) {
				v.fail(i, true, "frame %d/%d: tracks differ from the tracker replay", a.session, a.req)
			}
		}
	}
	return v
}
