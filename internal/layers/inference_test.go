package layers

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestConvInferenceMatchesExplicitLowering pins the inference forward pass —
// implicit im2col lowering plus the fused batch-norm/bias/leaky epilogue —
// bit for bit to the explicit reference: Im2col, GemmPrepacked over the col,
// then separate batch-norm, bias and tensor.Leaky passes.
func TestConvInferenceMatchesExplicitLowering(t *testing.T) {
	rng := tensor.NewRNG(21)
	for _, tc := range []struct {
		in                          Shape
		filters, ksize, stride, pad int
		bn                          bool
		act                         Activation
	}{
		{Shape{C: 3, H: 40, W: 37}, 8, 3, 1, 1, true, ActLeaky},   // DroNet layer 00 shape
		{Shape{C: 8, H: 21, W: 19}, 12, 3, 1, 1, true, ActLinear}, // bn, no activation
		{Shape{C: 5, H: 30, W: 30}, 7, 3, 2, 1, false, ActLeaky},  // strided, no bn
		{Shape{C: 12, H: 17, W: 17}, 30, 1, 1, 0, false, ActLinear},
		{Shape{C: 1, H: 4, W: 4}, 2, 3, 1, 1, true, ActLeaky}, // below the packing threshold
	} {
		t.Run(fmt.Sprintf("%dx%dx%d_f%d_k%d_s%d", tc.in.C, tc.in.H, tc.in.W, tc.filters, tc.ksize, tc.stride), func(t *testing.T) {
			c, err := NewConv2D(tc.in, tc.filters, tc.ksize, tc.stride, tc.pad, tc.bn, tc.act, rng)
			if err != nil {
				t.Fatal(err)
			}
			rng.FillUniform(c.Biases.W.Data, -0.5, 0.5)
			if tc.bn {
				rng.FillUniform(c.Scales.W.Data, 0.5, 1.5)
				rng.FillUniform(c.RollingMean.Data, -0.2, 0.2)
				rng.FillUniform(c.RollingVar.Data, 0.5, 2)
			}
			x := randInput(rng, 2, tc.in.C, tc.in.H, tc.in.W)
			got := c.CloneForInference().Forward(x, false)

			m, k := tc.filters, tc.in.C*tc.ksize*tc.ksize
			n := c.out.H * c.out.W
			pre := tensor.PackA(false, m, k, 1, c.Weights.W.Data, k)
			col := make([]float32, k*n)
			want := make([]float32, len(got.Data))
			for b := 0; b < x.N; b++ {
				tensor.Im2col(x.Batch(b).Data, tc.in.C, tc.in.H, tc.in.W, tc.ksize, tc.stride, tc.pad, col)
				dst := want[b*m*n : (b+1)*m*n]
				tensor.GemmPrepacked(pre, false, n, col, n, 0, dst, n)
				for f := 0; f < m; f++ {
					seg := dst[f*n : (f+1)*n]
					if tc.bn {
						inv := 1 / sqrt32(c.RollingVar.Data[f]+bnEps)
						mu, gamma := c.RollingMean.Data[f], c.Scales.W.Data[f]
						for i, v := range seg {
							seg[i] = gamma * (v - mu) * inv
						}
					}
					for i := range seg {
						seg[i] += c.Biases.W.Data[f]
					}
				}
				if tc.act == ActLeaky {
					tensor.Leaky(dst)
				}
			}
			for i := range want {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
					t.Fatalf("out[%d] = %v, explicit lowering %v (must be bit-identical)", i, got.Data[i], want[i])
				}
			}
		})
	}
}

// TestMaxPoolInferenceMatchesTrain pins the inference pooling path to the
// training path bit for bit: random activations, inputs drawn from a small
// alphabet that plants +0/-0 ties, NaN and ±Inf in the same windows, odd
// input sizes (trailing-pad windows), and the pools that must take the
// general path — Tiny-YOLO's 2×2/1 and a 3×3/2.
func TestMaxPoolInferenceMatchesTrain(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	alphabet := []float32{0, negZero, 0, negZero, -0.5, 0.5, nan, float32(math.Inf(-1)), float32(math.Inf(1))}
	rng := tensor.NewRNG(5)
	for _, pc := range []struct {
		size, stride, pad int
		pairwise          bool
	}{
		{2, 2, -1, true}, // Darknet default: pad 1 on the trailing edge
		{2, 2, 0, true},
		{2, 1, -1, false}, // Tiny-YOLO's size-preserving pool
		{3, 2, -1, false},
	} {
		for _, in := range []Shape{{C: 3, H: 8, W: 8}, {C: 2, H: 7, W: 9}, {C: 1, H: 13, W: 13}, {C: 2, H: 1, W: 5}, {C: 1, H: 2, W: 1}} {
			p, err := NewMaxPool(in, pc.size, pc.stride, pc.pad)
			if err != nil {
				t.Fatal(err)
			}
			if p.pairwise() != pc.pairwise {
				t.Fatalf("%s pad %d: pairwise() = %v, want %v", p.Name(), pc.pad, p.pairwise(), pc.pairwise)
			}
			for trial := 0; trial < 20; trial++ {
				x := randInput(rng, 2, in.C, in.H, in.W)
				if trial%2 == 1 {
					for i := range x.Data {
						x.Data[i] = alphabet[rng.Intn(len(alphabet))]
					}
				}
				want := p.Forward(x, true).Clone()
				got := p.Forward(x, false)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%s pad %d in %+v trial %d: out[%d] = %v (%#x), train path %v (%#x)",
							p.Name(), pc.pad, in, trial, i, got.Data[i], math.Float32bits(got.Data[i]),
							want.Data[i], math.Float32bits(want.Data[i]))
					}
				}
			}
		}
	}
}
