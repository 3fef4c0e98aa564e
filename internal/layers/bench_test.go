package layers

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkConvForward times inference Forward of DroNet's two widest 3×3
// convolutions at the 512 px serving size: layer 00 (3→8 at 512²) and
// layer 02 (8→12 at 256²). A regression in the lowering shows up here
// before it shows up as lost frames/s.
func BenchmarkConvForward(b *testing.B) {
	for _, tc := range []struct {
		layer   int
		in      Shape
		filters int
	}{
		{0, Shape{C: 3, H: 512, W: 512}, 8},
		{2, Shape{C: 8, H: 256, W: 256}, 12},
	} {
		b.Run(fmt.Sprintf("layer%02d_%dx%dx%d_f%d", tc.layer, tc.in.C, tc.in.H, tc.in.W, tc.filters), func(b *testing.B) {
			rng := tensor.NewRNG(1)
			c, err := NewConv2D(tc.in, tc.filters, 3, 1, 1, true, ActLeaky, rng)
			if err != nil {
				b.Fatal(err)
			}
			l := c.CloneForInference()
			x := randInput(rng, 1, tc.in.C, tc.in.H, tc.in.W)
			l.Forward(x, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Forward(x, false)
			}
			b.ReportMetric(float64(c.FLOPs())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkMaxPool times the inference 2×2/2 pool on DroNet's layer 01
// input (8×512², the output of layer 00 at the serving size).
func BenchmarkMaxPool(b *testing.B) {
	rng := tensor.NewRNG(1)
	p, err := NewMaxPool(Shape{C: 8, H: 512, W: 512}, 2, 2, -1)
	if err != nil {
		b.Fatal(err)
	}
	x := randInput(rng, 1, 8, 512, 512)
	p.Forward(x, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x, false)
	}
}
