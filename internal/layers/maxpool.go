package layers

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MaxPool is a Darknet-style max-pooling layer. Darknet pads max-pool
// windows with `size-1` total padding by default (split as floor(pad/2) on
// the leading edge, sampling -inf outside the image), which makes the common
// 2x2/2 pool behave like a ceil-mode pool and lets the 2x2/1 pool in
// Tiny-YOLO preserve spatial size.
type MaxPool struct {
	in, out Shape
	Size    int
	Stride  int
	Pad     int // total padding, darknet default size-1

	st poolState
}

// poolState is the per-instance workspace of a MaxPool; CloneForInference
// resets it so replicas never share buffers.
type poolState struct {
	x   *tensor.Tensor
	out *tensor.Tensor
	idx []int32 // argmax flat input index per output element, -1 for all-pad windows
	dx  *tensor.Tensor
}

// NewMaxPool creates a max-pool layer. pad < 0 selects the Darknet default
// of size-1.
func NewMaxPool(in Shape, size, stride, pad int) (*MaxPool, error) {
	if size <= 0 || stride <= 0 {
		return nil, fmt.Errorf("layers: invalid maxpool size=%d stride=%d", size, stride)
	}
	if pad < 0 {
		pad = size - 1
	}
	outH := (in.H+pad-size)/stride + 1
	outW := (in.W+pad-size)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("layers: maxpool %d/%d collapses %dx%d input", size, stride, in.H, in.W)
	}
	return &MaxPool{
		in:     in,
		out:    Shape{C: in.C, H: outH, W: outW},
		Size:   size,
		Stride: stride,
		Pad:    pad,
	}, nil
}

// CloneForInference implements Layer: max-pooling has no parameters, so the
// clone is an independent instance with the same geometry and fresh buffers.
func (p *MaxPool) CloneForInference() Layer {
	cp := *p
	cp.st = poolState{}
	return &cp
}

// Name implements Layer.
func (p *MaxPool) Name() string { return fmt.Sprintf("maxpool %dx%d/%d", p.Size, p.Size, p.Stride) }

// InShape implements Layer.
func (p *MaxPool) InShape() Shape { return p.in }

// OutShape implements Layer.
func (p *MaxPool) OutShape() Shape { return p.out }

// Params implements Layer.
func (p *MaxPool) Params() []*Param { return nil }

// FLOPs implements Layer: one compare per window element.
func (p *MaxPool) FLOPs() int64 {
	return int64(p.out.Size()) * int64(p.Size*p.Size)
}

// IOBytes implements Layer.
func (p *MaxPool) IOBytes() int64 {
	return 4 * (int64(p.in.Size()) + int64(p.out.Size()))
}

// Forward implements Layer. Inference of the 2×2/2 pool takes
// forward2x2; every other case runs the general loop below, which records
// the argmax for Backward. It clamps the window bounds per output
// row/column before the window loops, so the interior runs without a
// per-element padding branch.
func (p *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	p.st.x = x
	out := ensure(&p.st.out, x.N, p.out)
	if !train && p.pairwise() {
		p.forward2x2(x, out)
		return out
	}
	if train {
		need := out.Len()
		if len(p.st.idx) != need {
			p.st.idx = make([]int32, need)
		}
	}
	off := p.Pad / 2
	inH, inW := p.in.H, p.in.W
	for b := 0; b < x.N; b++ {
		src := x.Batch(b).Data
		dst := out.Batch(b).Data
		for ch := 0; ch < p.in.C; ch++ {
			plane := src[ch*inH*inW : (ch+1)*inH*inW]
			for oh := 0; oh < p.out.H; oh++ {
				h0 := oh*p.Stride - off
				kh0, kh1 := 0, p.Size
				if h0 < 0 {
					kh0 = -h0
				}
				if h0+kh1 > inH {
					kh1 = inH - h0
				}
				for ow := 0; ow < p.out.W; ow++ {
					w0 := ow*p.Stride - off
					kw0, kw1 := 0, p.Size
					if w0 < 0 {
						kw0 = -w0
					}
					if w0+kw1 > inW {
						kw1 = inW - w0
					}
					best := float32(math.Inf(-1))
					bestIdx := int32(-1)
					for kh := kh0; kh < kh1; kh++ {
						row := (h0 + kh) * inW
						for kw := kw0; kw < kw1; kw++ {
							iw := row + w0 + kw
							if v := plane[iw]; v > best {
								best = v
								bestIdx = int32(ch*inH*inW + iw)
							}
						}
					}
					if bestIdx == -1 {
						best = 0 // all-pad window (possible only with extreme padding)
					}
					oi := ch*p.out.H*p.out.W + oh*p.out.W + ow
					dst[oi] = best
					if train {
						p.st.idx[b*p.out.Size()+oi] = bestIdx
					}
				}
			}
		}
	}
	return out
}

// pairwise reports whether the pool is the 2×2/2 window with no leading pad
// (Darknet's default pad of 1 lands on the trailing edge), which inference
// runs through forward2x2.
func (p *MaxPool) pairwise() bool {
	return p.Size == 2 && p.Stride == 2 && p.Pad/2 == 0
}

// forward2x2 is the inference path of the 2×2/2 pool: no argmax
// bookkeeping, and a compare-select per window element instead of a branch
// that mispredicts on random activations. It returns the same bits as the
// training path, which keeps the first element strictly greater than
// everything before it, starting from -Inf, and writes 0 when nothing
// qualifies (every element NaN or -Inf). A window clamped by the trailing
// pad re-reads its in-image row or column, which never replaces the kept
// value, so clamping needs no branch either.
func (p *MaxPool) forward2x2(x, out *tensor.Tensor) {
	inH, inW := p.in.H, p.in.W
	outH, outW := p.out.H, p.out.W
	for b := 0; b < x.N; b++ {
		src := x.Batch(b).Data
		dst := out.Batch(b).Data
		for ch := 0; ch < p.in.C; ch++ {
			plane := src[ch*inH*inW : (ch+1)*inH*inW]
			for oh := 0; oh < outH; oh++ {
				h1 := min(2*oh+1, inH-1)
				pool2x2Row(dst[(ch*outH+oh)*outW:(ch*outH+oh+1)*outW],
					plane[2*oh*inW:2*oh*inW+inW], plane[h1*inW:h1*inW+inW])
			}
		}
	}
}

// pool2x2Row pools input rows r0 and r1 into output row o. Each window is
// scanned as two row pairs joined at the end; the join is exact because a
// pair result is -Inf or a non-NaN maximum, and the bottom pair replaces the
// top one only when strictly greater, so the first maximum still wins —
// including which of +0 and -0 wins a tie.
func pool2x2Row(o, r0, r1 []float32) {
	negInf := float32(math.Inf(-1))
	full := len(r0) / 2 // windows lying inside the row
	for ow := 0; ow < full; ow++ {
		top := gtSelect(gtSelect(negInf, r0[2*ow]), r0[2*ow+1])
		bottom := gtSelect(gtSelect(negInf, r1[2*ow]), r1[2*ow+1])
		o[ow] = noneToZero(gtSelect(top, bottom))
	}
	if len(o) > full { // odd width: the last window holds one column
		w := len(r0) - 1
		o[full] = noneToZero(gtSelect(gtSelect(negInf, r0[w]), r1[w]))
	}
}

// gtSelect returns v if v > best and best otherwise, as a select on the
// bits (the compiler emits a conditional move for integer selects only).
func gtSelect(best, v float32) float32 {
	bits := math.Float32bits(best)
	if vb := math.Float32bits(v); v > best {
		bits = vb
	}
	return math.Float32frombits(bits)
}

// noneToZero maps the -Inf left by a window with no qualifying element to
// the 0 the training path writes for it.
func noneToZero(best float32) float32 {
	bits := math.Float32bits(best)
	if best == float32(math.Inf(-1)) {
		bits = 0
	}
	return math.Float32frombits(bits)
}

// Backward implements Layer: routes each output gradient to its argmax.
func (p *MaxPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := ensureDX(&p.st.dx, p.st.x)
	dx.Zero()
	outSize := p.out.Size()
	for b := 0; b < dout.N; b++ {
		d := dout.Batch(b).Data
		g := dx.Batch(b).Data
		for i, v := range d {
			if src := p.st.idx[b*outSize+i]; src >= 0 {
				g[src] += v
			}
		}
	}
	return dx
}
