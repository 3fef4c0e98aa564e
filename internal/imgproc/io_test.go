package imgproc

import (
	"image"
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestFromGoImageFastPathsMatchAt pins the direct-Pix conversions of
// *image.RGBA and *image.NRGBA to the generic color.Color loop bit for bit:
// opaque and partial alpha, sub-images whose Bounds().Min is not the
// origin, and an image type that takes the generic loop itself.
func TestFromGoImageFastPathsMatchAt(t *testing.T) {
	rng := tensor.NewRNG(3)
	fill := func(pix []byte, opaque bool) {
		for i := range pix {
			pix[i] = byte(rng.Intn(256))
			if opaque && i%4 == 3 {
				pix[i] = 255
			}
		}
	}
	rgba := func(r image.Rectangle, opaque bool) *image.RGBA {
		m := image.NewRGBA(r)
		fill(m.Pix, opaque)
		return m
	}
	nrgba := func(r image.Rectangle, opaque bool) *image.NRGBA {
		m := image.NewNRGBA(r)
		fill(m.Pix, opaque)
		return m
	}
	gray := image.NewGray(image.Rect(0, 0, 7, 5))
	fill(gray.Pix, false)
	for _, tc := range []struct {
		name string
		img  image.Image
	}{
		{"rgba opaque", rgba(image.Rect(0, 0, 13, 9), true)},
		{"rgba partial alpha", rgba(image.Rect(0, 0, 13, 9), false)},
		{"nrgba opaque", nrgba(image.Rect(0, 0, 13, 9), true)},
		{"nrgba partial alpha", nrgba(image.Rect(0, 0, 13, 9), false)},
		{"rgba offset bounds", rgba(image.Rect(5, 3, 16, 10), false)},
		{"rgba sub-image", rgba(image.Rect(0, 0, 20, 12), false).SubImage(image.Rect(3, 2, 17, 9))},
		{"nrgba sub-image", nrgba(image.Rect(-4, 1, 20, 12), false).SubImage(image.Rect(-1, 4, 6, 11))},
		{"gray fallback", gray},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := FromGoImage(tc.img)
			b := tc.img.Bounds()
			want := NewImage(b.Dx(), b.Dy())
			fromAt(want, tc.img)
			for i := range want.Pix {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
					t.Fatalf("Pix[%d] = %v, At loop %v", i, got.Pix[i], want.Pix[i])
				}
			}
		})
	}
}
