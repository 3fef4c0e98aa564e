package tensor

import (
	"math"
	"testing"
)

// FuzzConvLoweringVsIm2col pins the implicit-im2col lowering to the
// materialized one bit for bit: for every registered kernel family, packing
// B panels straight from the image (gemmConvPacked, with pre-packed and with
// on-the-fly A) must produce the same output bytes as Im2col followed by the
// packed GEMM over the col, and GemmConvPrepacked must match Im2col +
// GemmPrepacked under the active family, below the packing threshold too.
// Shapes cover ksize 2/3/5, stride 1/2, pad 0..2, widths that are not a
// multiple of NR, M below MR and K deeper than one kcBlock panel.
func FuzzConvLoweringVsIm2col(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(37), uint8(29), uint8(1), uint8(0), uint8(1))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(17), uint8(45), uint8(0), uint8(1), uint8(2))
	f.Add(uint64(3), uint8(11), uint8(11), uint8(20), uint8(23), uint8(2), uint8(0), uint8(2)) // k = 300
	f.Add(uint64(4), uint8(7), uint8(2), uint8(4), uint8(4), uint8(2), uint8(1), uint8(0))     // tiny: naive path
	f.Fuzz(func(t *testing.T, seed uint64, mm, cc, hh, ww, ksel, ssel, psel uint8) {
		m := int(mm)%16 + 1
		g := ConvGeom{
			C:      int(cc)%12 + 1,
			H:      int(hh)%48 + 1,
			W:      int(ww)%48 + 1,
			Ksize:  []int{2, 3, 5}[int(ksel)%3],
			Stride: int(ssel)%2 + 1,
			Pad:    int(psel) % 3,
		}
		if g.H+2*g.Pad < g.Ksize || g.W+2*g.Pad < g.Ksize {
			t.Skip("window larger than the padded image")
		}
		k, n := g.K(), g.N()
		rng := NewRNG(seed)
		a := make([]float32, m*k)
		img := make([]float32, g.C*g.H*g.W)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(img, -1, 1)
		col := make([]float32, k*n)
		Im2col(img, g.C, g.H, g.W, g.Ksize, g.Stride, g.Pad, col)

		same := func(what string, got, want []float32) {
			t.Helper()
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s m%d %+v: c[%d] = %v, Im2col lowering %v (must be bit-identical)", what, m, g, i, got[i], want[i])
				}
			}
		}

		kernelOnce.Do(initKernelList)
		if int64(m)*int64(n)*int64(k) >= packThreshold {
			for _, kern := range kernelList {
				pre := packAFor(kern, false, m, k, 1, a, k)
				for _, data := range [][]float32{pre.data, nil} {
					want := make([]float32, m*n)
					gemmPacked(kern, false, false, m, n, k, 1, a, k, col, n, want, n, data)
					got := make([]float32, m*n)
					gemmConvPacked(kern, g, m, false, 1, a, k, img, got, n, data)
					same(kern.name, got, want)
				}
			}
		}

		pre := PackA(false, m, k, 1, a, k)
		want := make([]float32, m*n)
		GemmPrepacked(pre, false, n, col, n, 0, want, n)
		got := make([]float32, m*n)
		for i := range got {
			got[i] = float32(math.NaN()) // beta = 0 must overwrite
		}
		GemmConvPrepacked(pre, g, img, make([]float32, g.ColLen(m)), got, n)
		same("GemmConvPrepacked", got, want)
	})
}
