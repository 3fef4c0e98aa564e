package imgproc

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"
)

// ToNRGBA converts the image to an 8-bit standard-library image.
func (m *Image) ToNRGBA() *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r, g, b := m.RGB(x, y)
			out.SetNRGBA(x, y, color.NRGBA{
				R: to8(r), G: to8(g), B: to8(b), A: 255,
			})
		}
	}
	return out
}

func to8(v float32) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

// FromGoImage converts any standard-library image to a float32 Image:
// each channel is the 16-bit premultiplied value color.Color.RGBA reports,
// over 65535. *image.RGBA (what PNG decoding yields for opaque truecolor
// frames) and *image.NRGBA are read straight from Pix with the same integer
// arithmetic their RGBA methods use, so the result is bit-identical to the
// generic At loop without an interface call per pixel.
func FromGoImage(src image.Image) *Image {
	b := src.Bounds()
	m := NewImage(b.Dx(), b.Dy())
	switch s := src.(type) {
	case *image.RGBA:
		fromPix(m, s.Pix, s.PixOffset(b.Min.X, b.Min.Y), s.Stride, false)
	case *image.NRGBA:
		fromPix(m, s.Pix, s.PixOffset(b.Min.X, b.Min.Y), s.Stride, true)
	default:
		fromAt(m, src)
	}
	return m
}

// fromPix fills m from 8-bit RGBA samples laid out like image.RGBA.Pix,
// starting at byte off with the given row stride. nonPremul selects NRGBA
// samples, which color.NRGBA.RGBA scales by alpha: c·0x101·a/0xff; an
// opaque NRGBA pixel scales to c·0x101 like an RGBA one.
func fromPix(m *Image, pix []byte, off, stride int, nonPremul bool) {
	plane := m.W * m.H
	for y := 0; y < m.H; y++ {
		row := pix[off+y*stride : off+y*stride+4*m.W]
		for x := 0; x < m.W; x++ {
			px := row[4*x : 4*x+4]
			i := y*m.W + x
			if a := uint32(px[3]); nonPremul && a != 0xff {
				m.Pix[i] = float32(uint32(px[0])*0x101*a/0xff) / 65535
				m.Pix[plane+i] = float32(uint32(px[1])*0x101*a/0xff) / 65535
				m.Pix[2*plane+i] = float32(uint32(px[2])*0x101*a/0xff) / 65535
				continue
			}
			m.Pix[i] = unitByte[px[0]]
			m.Pix[plane+i] = unitByte[px[1]]
			m.Pix[2*plane+i] = unitByte[px[2]]
		}
	}
}

// unitByte maps an 8-bit sample c to float32(c·0x101)/65535, the value the
// generic loop computes from its 16-bit RGBA form.
var unitByte = func() (t [256]float32) {
	for c := range t {
		t[c] = float32(uint32(c)*0x101) / 65535
	}
	return t
}()

// fromAt fills m through the generic color.Color interface.
func fromAt(m *Image, src image.Image) {
	b := src.Bounds()
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			m.SetRGB(x, y, float32(r)/65535, float32(g)/65535, float32(bl)/65535)
		}
	}
}

// SavePNG writes the image to path as an 8-bit PNG.
func (m *Image) SavePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imgproc: %w", err)
	}
	defer f.Close()
	if err := png.Encode(f, m.ToNRGBA()); err != nil {
		return fmt.Errorf("imgproc: encode %s: %w", path, err)
	}
	return f.Close()
}

// LoadPNG reads a PNG file into a float32 Image.
func LoadPNG(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("imgproc: %w", err)
	}
	defer f.Close()
	src, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("imgproc: decode %s: %w", path, err)
	}
	return FromGoImage(src), nil
}
