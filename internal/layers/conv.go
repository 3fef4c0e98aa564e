package layers

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// Activation selects the element-wise non-linearity applied after a
// convolution (and its batch norm, when enabled).
type Activation int

// Supported activations. Darknet's tiny-YOLO family only uses leaky and
// linear (the final 1x1 prediction layer).
const (
	ActLinear Activation = iota
	ActLeaky
)

func (a Activation) String() string {
	if a == ActLeaky {
		return "leaky"
	}
	return "linear"
}

// Conv2D is a 2-D convolution with square kernels, optional batch
// normalization, and an optional activation — the workhorse layer of every
// model in the paper. Forward runs one GEMM per image against the
// pre-packed filters. Inference packs the GEMM's B panels straight from the
// image (tensor.GemmConvPrepacked), so no im2col matrix is materialized
// above the packing threshold; training and Backward lower through an
// explicit im2col, like Darknet.
type Conv2D struct {
	in, out   Shape
	Filters   int
	Ksize     int
	Stride    int
	Pad       int
	BatchNorm bool
	Act       Activation

	Weights *Param // Filters × (inC·k·k)
	Biases  *Param // Filters (β when BatchNorm)
	Scales  *Param // Filters (γ), BatchNorm only

	// Rolling statistics for inference-time batch norm.
	RollingMean, RollingVar *tensor.Tensor

	// packed caches the filter matrix pre-packed as the GEMM A operand
	// (tensor.PackA). The holder is allocated once in NewConv2D and shared
	// by every CloneForInference copy — like the weights themselves — so the
	// pack is built once per model, not once per replica, and invalidation
	// through any copy is visible to all.
	packed *packedWeights

	st convState
}

// packedWeights is the shared pre-packed filter cache: filled lazily on the
// first inference Forward (double-checked under mu), dropped whenever the
// weights mutate (InvalidateWeightPack), rebuilt on the next inference pass.
type packedWeights struct {
	mu  sync.Mutex
	pre atomic.Pointer[tensor.PackedA]
}

// convState is the per-instance workspace of a Conv2D: everything Forward
// and Backward mutate, as opposed to the shared read-only parameters above.
// CloneForInference resets it to the zero value so replicas never alias
// scratch memory; buffers are (re)allocated lazily on first use.
type convState struct {
	x        *tensor.Tensor // input reference
	out      *tensor.Tensor // post-activation output
	preAct   *tensor.Tensor // pre-activation (post-BN) values
	preBN    *tensor.Tensor // pre-BN conv outputs (BatchNorm only)
	xhat     *tensor.Tensor // normalized values (BatchNorm only)
	batchMu  []float32
	batchVar []float32
	col      []float32     // im2col scratch (owned fallback when no arena)
	arena    *tensor.Arena // per-replica scratch arena, when bound
	dx       *tensor.Tensor
}

const bnEps = 1e-5

// NewConv2D creates a convolution layer for the given input shape.
func NewConv2D(in Shape, filters, ksize, stride, pad int, batchNorm bool, act Activation, rng *tensor.RNG) (*Conv2D, error) {
	if filters <= 0 || ksize <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("layers: invalid conv config filters=%d ksize=%d stride=%d pad=%d", filters, ksize, stride, pad)
	}
	outH := tensor.ConvOutSize(in.H, ksize, stride, pad)
	outW := tensor.ConvOutSize(in.W, ksize, stride, pad)
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("layers: conv %dx%d/%d pad %d collapses %dx%d input", ksize, ksize, stride, pad, in.H, in.W)
	}
	c := &Conv2D{
		in:        in,
		out:       Shape{C: filters, H: outH, W: outW},
		Filters:   filters,
		Ksize:     ksize,
		Stride:    stride,
		Pad:       pad,
		BatchNorm: batchNorm,
		Act:       act,
	}
	fanIn := in.C * ksize * ksize
	w := tensor.New(1, 1, filters, fanIn)
	rng.FillHe(w.Data, fanIn)
	c.Weights = newParam("weights", w, true)
	c.packed = &packedWeights{}
	c.Biases = newParam("biases", tensor.NewVec(filters), false)
	if batchNorm {
		s := tensor.NewVec(filters)
		s.Fill(1)
		c.Scales = newParam("scales", s, false)
		c.RollingMean = tensor.NewVec(filters)
		c.RollingVar = tensor.NewVec(filters)
		c.RollingVar.Fill(1)
	}
	return c, nil
}

// CloneForInference implements Layer: the clone shares Weights, Biases,
// Scales, the rolling batch-norm statistics and the pre-packed filter cache
// with the receiver but starts with an empty workspace, so it can run
// Forward concurrently with the original as long as no instance is
// training. Cloning packs eagerly: replica fleets are built before traffic
// arrives, so the first request should not pay the pack.
func (c *Conv2D) CloneForInference() Layer {
	cp := *c
	cp.st = convState{}
	cp.inferencePack()
	return &cp
}

// inferencePack returns the shared pre-packed filter matrix, building it on
// first use. Concurrent replicas race benignly to the double-checked lock;
// whoever wins publishes one slab for everyone.
func (c *Conv2D) inferencePack() *tensor.PackedA {
	if c.packed == nil {
		return nil
	}
	if pre := c.packed.pre.Load(); pre != nil {
		return pre
	}
	c.packed.mu.Lock()
	defer c.packed.mu.Unlock()
	if pre := c.packed.pre.Load(); pre != nil {
		return pre
	}
	k := c.in.C * c.Ksize * c.Ksize
	pre := tensor.PackA(false, c.Filters, k, 1, c.Weights.W.Data, k)
	c.packed.pre.Store(pre)
	return pre
}

// InvalidateWeightPack drops the pre-packed filter cache. Every mutation of
// Weights.W — an optimizer step, loading a checkpoint, folding batch norm —
// must call it (through any clone; the cache is shared), or inference would
// keep serving the stale pack.
func (c *Conv2D) InvalidateWeightPack() {
	if c.packed != nil {
		c.packed.pre.Store(nil)
	}
}

// PackedBytes reports the resident size of the pre-packed filter cache, so
// model-level weight accounting (WeightBytes, /healthz) does not
// under-report memory.
func (c *Conv2D) PackedBytes() int64 {
	if c.packed == nil {
		return 0
	}
	if pre := c.packed.pre.Load(); pre != nil {
		return pre.Bytes()
	}
	return 0
}

// SetScratchArena implements ScratchUser: im2col output is carved from the
// replica's arena instead of a layer-owned buffer. The network rebinds the
// arena on Add and CloneForInference, so every replica owns exactly one.
func (c *Conv2D) SetScratchArena(a *tensor.Arena) { c.st.arena = a }

// geom is the convolution's GEMM lowering geometry for one image.
func (c *Conv2D) geom() tensor.ConvGeom {
	return tensor.ConvGeom{C: c.in.C, H: c.in.H, W: c.in.W, Ksize: c.Ksize, Stride: c.Stride, Pad: c.Pad}
}

// ensureCol returns need floats of im2col scratch: an arena carve when a
// per-replica arena is bound (the serving configuration — one carve per
// Forward/Backward phase, pure pointer bump at steady state), otherwise a
// layer-owned buffer allocated on first use.
func (c *Conv2D) ensureCol(need int) []float32 {
	if c.st.arena != nil {
		return c.st.arena.F32(need)
	}
	if len(c.st.col) != need {
		c.st.col = make([]float32, need)
	}
	return c.st.col
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	bn := ""
	if c.BatchNorm {
		bn = " bn"
	}
	return fmt.Sprintf("conv %dx%d/%d %d%s %s", c.Ksize, c.Ksize, c.Stride, c.Filters, bn, c.Act)
}

// InShape implements Layer.
func (c *Conv2D) InShape() Shape { return c.in }

// OutShape implements Layer.
func (c *Conv2D) OutShape() Shape { return c.out }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	p := []*Param{c.Weights, c.Biases}
	if c.BatchNorm {
		p = append(p, c.Scales)
	}
	return p
}

// FLOPs implements Layer: 2 ops per multiply-accumulate.
func (c *Conv2D) FLOPs() int64 {
	macs := int64(c.Filters) * int64(c.in.C*c.Ksize*c.Ksize) * int64(c.out.H*c.out.W)
	return 2 * macs
}

// IOBytes implements Layer.
func (c *Conv2D) IOBytes() int64 {
	weights := int64(c.Weights.W.Len() + c.Filters)
	return 4 * (int64(c.in.Size()) + int64(c.out.Size()) + weights)
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c.st.x = x
	out := ensure(&c.st.out, x.N, c.out)
	g := c.geom()
	if !train {
		// Inference reuses the shared pre-packed filters and lowers
		// implicitly; col is carved only below the packing threshold.
		pre := c.inferencePack()
		var col []float32
		if need := g.ColLen(c.Filters); need > 0 {
			col = c.ensureCol(need)
		}
		n := g.N()
		for b := 0; b < x.N; b++ {
			tensor.GemmConvPrepacked(pre, g, x.Batch(b).Data, col, out.Batch(b).Data, n)
		}
		c.inferEpilogue(out)
		return out
	}
	m, k, n := c.Filters, g.K(), g.N()
	pointwise := g.Pointwise()
	var col []float32
	if !pointwise {
		col = c.ensureCol(k * n) // one carve per Forward, shared by the batch loop
	}
	// Training packs the filters on the fly (they are about to change).
	for b := 0; b < x.N; b++ {
		src := x.Batch(b).Data
		lowered := src
		if !pointwise {
			tensor.Im2col(src, c.in.C, c.in.H, c.in.W, c.Ksize, c.Stride, c.Pad, col)
			lowered = col
		}
		tensor.Gemm(false, false, m, n, k, 1, c.Weights.W.Data, k, lowered, n, 0, out.Batch(b).Data, n)
	}
	if c.BatchNorm {
		c.st.preBN = ensureLike(c.st.preBN, out)
		c.st.preBN.Copy(out)
		c.forwardBatchNormTrain(out)
	}
	// Add bias (β for batch norm).
	spatial := c.out.H * c.out.W
	for b := 0; b < out.N; b++ {
		d := out.Batch(b).Data
		for f := 0; f < m; f++ {
			bias := c.Biases.W.Data[f]
			seg := d[f*spatial : (f+1)*spatial]
			for i := range seg {
				seg[i] += bias
			}
		}
	}
	c.st.preAct = ensureLike(c.st.preAct, out)
	c.st.preAct.Copy(out)
	if c.Act == ActLeaky {
		tensor.Leaky(out.Data)
	}
	return out
}

// inferEpilogue applies inference batch norm (rolling statistics), the bias
// and the activation in one pass over each output channel. Per element it
// performs the same float32 operations in the same order as separate
// batch-norm, bias and tensor.Leaky passes: γ·(v−μ)·inv, rounded, plus β,
// then the leaky ReLU.
func (c *Conv2D) inferEpilogue(out *tensor.Tensor) {
	spatial := c.out.H * c.out.W
	leaky := c.Act == ActLeaky
	for f := 0; f < c.Filters; f++ {
		bias := c.Biases.W.Data[f]
		var inv, mu, gamma float32
		if c.BatchNorm {
			inv = 1 / sqrt32(c.RollingVar.Data[f]+bnEps)
			mu = c.RollingMean.Data[f]
			gamma = c.Scales.W.Data[f]
		}
		for b := 0; b < out.N; b++ {
			seg := out.Batch(b).Data[f*spatial : (f+1)*spatial]
			switch {
			case c.BatchNorm && leaky:
				for i, v := range seg {
					seg[i] = tensor.LeakyValue(float32(gamma*(v-mu)*inv) + bias)
				}
			case c.BatchNorm:
				for i, v := range seg {
					seg[i] = float32(gamma*(v-mu)*inv) + bias
				}
			case leaky:
				for i, v := range seg {
					seg[i] = tensor.LeakyValue(v + bias)
				}
			default:
				for i := range seg {
					seg[i] += bias
				}
			}
		}
	}
}

func ensureLike(t, like *tensor.Tensor) *tensor.Tensor {
	return tensor.Reslice(t, like.N, like.C, like.H, like.W)
}

// forwardBatchNormTrain normalizes out in place using batch statistics and
// updates the rolling statistics (Darknet momentum 0.99/0.01).
func (c *Conv2D) forwardBatchNormTrain(out *tensor.Tensor) {
	spatial := c.out.H * c.out.W
	mTotal := float32(out.N * spatial)
	c.st.xhat = ensureLike(c.st.xhat, out)
	if len(c.st.batchMu) != c.Filters {
		c.st.batchMu = make([]float32, c.Filters)
		c.st.batchVar = make([]float32, c.Filters)
	}
	for f := 0; f < c.Filters; f++ {
		var sum float64
		for b := 0; b < out.N; b++ {
			seg := out.Batch(b).Data[f*spatial : (f+1)*spatial]
			for _, v := range seg {
				sum += float64(v)
			}
		}
		mu := float32(sum / float64(mTotal))
		var vsum float64
		for b := 0; b < out.N; b++ {
			seg := out.Batch(b).Data[f*spatial : (f+1)*spatial]
			for _, v := range seg {
				d := float64(v - mu)
				vsum += d * d
			}
		}
		variance := float32(vsum / float64(mTotal))
		c.st.batchMu[f] = mu
		c.st.batchVar[f] = variance
		c.RollingMean.Data[f] = 0.99*c.RollingMean.Data[f] + 0.01*mu
		c.RollingVar.Data[f] = 0.99*c.RollingVar.Data[f] + 0.01*variance
		inv := 1 / sqrt32(variance+bnEps)
		gamma := c.Scales.W.Data[f]
		for b := 0; b < out.N; b++ {
			seg := out.Batch(b).Data[f*spatial : (f+1)*spatial]
			xh := c.st.xhat.Batch(b).Data[f*spatial : (f+1)*spatial]
			for i, v := range seg {
				h := (v - mu) * inv
				xh[i] = h
				seg[i] = gamma * h
			}
		}
	}
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(x)))
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	out := c.st.out
	delta := dout.Clone() // gradient w.r.t. pre-activation, refined in stages
	if c.Act == ActLeaky {
		tensor.LeakyGrad(out.Data, delta.Data)
	}
	spatial := c.out.H * c.out.W
	// Bias gradient.
	for b := 0; b < delta.N; b++ {
		d := delta.Batch(b).Data
		for f := 0; f < c.Filters; f++ {
			seg := d[f*spatial : (f+1)*spatial]
			var s float64
			for _, v := range seg {
				s += float64(v)
			}
			c.Biases.G.Data[f] += float32(s)
		}
	}
	if c.BatchNorm {
		c.backwardBatchNorm(delta)
	}
	// Weight gradient and input gradient per image.
	g := c.geom()
	m, k, n := c.Filters, g.K(), spatial
	dx := ensureDX(&c.st.dx, c.st.x)
	dx.Zero()
	pointwise := g.Pointwise()
	var col, dcol []float32
	if !pointwise {
		// With an arena these are two distinct carves; in the legacy
		// layer-owned mode both name the same buffer, which is safe because
		// col's contents are consumed (dW GEMM) before dcol is zeroed.
		col = c.ensureCol(k * n)
		dcol = c.ensureCol(k * n)
	}
	for b := 0; b < delta.N; b++ {
		src := c.st.x.Batch(b).Data
		lowered := src
		if !pointwise {
			tensor.Im2col(src, c.in.C, c.in.H, c.in.W, c.Ksize, c.Stride, c.Pad, col)
			lowered = col
		}
		d := delta.Batch(b).Data
		// dW += d · colᵀ
		tensor.Gemm(false, true, m, k, n, 1, d, n, lowered, n, 1, c.Weights.G.Data, k)
		// dcol = Wᵀ · d ; scatter back with col2im.
		dxb := dx.Batch(b).Data
		if pointwise {
			tensor.Gemm(true, false, k, n, m, 1, c.Weights.W.Data, k, d, n, 1, dxb, n)
		} else {
			for i := range dcol {
				dcol[i] = 0
			}
			tensor.Gemm(true, false, k, n, m, 1, c.Weights.W.Data, k, d, n, 0, dcol, n)
			tensor.Col2im(dcol, c.in.C, c.in.H, c.in.W, c.Ksize, c.Stride, c.Pad, dxb)
		}
	}
	return dx
}

func ensureDX(t **tensor.Tensor, like *tensor.Tensor) *tensor.Tensor {
	*t = tensor.Reslice(*t, like.N, like.C, like.H, like.W)
	return *t
}

// backwardBatchNorm converts delta (gradient w.r.t. the normalized+scaled
// output γ·x̂) into the gradient w.r.t. the pre-BN convolution output, and
// accumulates γ gradients. β's gradient equals the bias gradient already
// accumulated above.
func (c *Conv2D) backwardBatchNorm(delta *tensor.Tensor) {
	spatial := c.out.H * c.out.W
	mTotal := float32(delta.N * spatial)
	for f := 0; f < c.Filters; f++ {
		gamma := c.Scales.W.Data[f]
		inv := 1 / sqrt32(c.st.batchVar[f]+bnEps)
		var sumD, sumDX float64
		for b := 0; b < delta.N; b++ {
			d := delta.Batch(b).Data[f*spatial : (f+1)*spatial]
			xh := c.st.xhat.Batch(b).Data[f*spatial : (f+1)*spatial]
			for i, v := range d {
				sumD += float64(v)
				sumDX += float64(v) * float64(xh[i])
			}
		}
		c.Scales.G.Data[f] += float32(sumDX)
		meanD := float32(sumD) / mTotal
		meanDX := float32(sumDX) / mTotal
		for b := 0; b < delta.N; b++ {
			d := delta.Batch(b).Data[f*spatial : (f+1)*spatial]
			xh := c.st.xhat.Batch(b).Data[f*spatial : (f+1)*spatial]
			for i := range d {
				d[i] = gamma * inv * (d[i] - meanD - xh[i]*meanDX)
			}
		}
	}
}
