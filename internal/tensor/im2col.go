package tensor

// Im2col unrolls a single-image CHW input into the column matrix used to
// lower convolution onto GEMM. The output col has (channels*ksize*ksize)
// rows and (outH*outW) columns, row-major. Input pixels outside the padded
// image contribute zeros.
func Im2col(img []float32, channels, height, width, ksize, stride, pad int, col []float32) {
	outH := (height+2*pad-ksize)/stride + 1
	outW := (width+2*pad-ksize)/stride + 1
	colsPerRow := outH * outW
	rows := channels * ksize * ksize
	for r := 0; r < rows; r++ {
		wOff := r % ksize
		hOff := (r / ksize) % ksize
		ch := r / (ksize * ksize)
		src := img[ch*height*width:]
		dst := col[r*colsPerRow:]
		for oh := 0; oh < outH; oh++ {
			ih := oh*stride - pad + hOff
			base := oh * outW
			if ih < 0 || ih >= height {
				for ow := 0; ow < outW; ow++ {
					dst[base+ow] = 0
				}
				continue
			}
			srow := src[ih*width:]
			for ow := 0; ow < outW; ow++ {
				iw := ow*stride - pad + wOff
				if iw < 0 || iw >= width {
					dst[base+ow] = 0
				} else {
					dst[base+ow] = srow[iw]
				}
			}
		}
	}
}

// ConvGeom is the geometry of one convolution lowered onto GEMM: a C×H×W
// image, a square Ksize window, Stride and Pad. Its B operand is the Im2col
// matrix of the image, K() rows by N() columns.
type ConvGeom struct {
	C, H, W            int
	Ksize, Stride, Pad int
}

// OutH is the output height.
func (g ConvGeom) OutH() int { return ConvOutSize(g.H, g.Ksize, g.Stride, g.Pad) }

// OutW is the output width.
func (g ConvGeom) OutW() int { return ConvOutSize(g.W, g.Ksize, g.Stride, g.Pad) }

// K is the lowered row count, C·Ksize².
func (g ConvGeom) K() int { return g.C * g.Ksize * g.Ksize }

// N is the lowered column count, OutH·OutW.
func (g ConvGeom) N() int { return g.OutH() * g.OutW() }

// Pointwise reports whether the window is 1×1/1 with no padding, where the
// lowered matrix is the image itself.
func (g ConvGeom) Pointwise() bool { return g.Ksize == 1 && g.Stride == 1 && g.Pad == 0 }

// ColLen is the length of the Im2col scratch GemmConvPrepacked needs for m
// filters: K·N below the packing threshold, where the naive loops read a
// materialized col, and zero otherwise — B is then the image itself
// (pointwise) or packed straight from it.
func (g ConvGeom) ColLen(m int) int {
	if g.Pointwise() || int64(m)*int64(g.N())*int64(g.K()) >= packThreshold {
		return 0
	}
	return g.K() * g.N()
}

// GemmConvPrepacked computes C = pre·im2col(img) for one CHW image: the
// convolution of img by the pre-packed filter matrix (pre.M() filters,
// pre.K() == g.K()). Above the packing threshold the driver packs B panels
// straight from img, so no col is materialized; col (len ≥ g.ColLen(pre.M()))
// is only written below it. The result is bit-identical to Im2col followed by
// GemmPrepacked(pre, false, g.N(), col, g.N(), 0, c, ldc).
func GemmConvPrepacked(pre *PackedA, g ConvGeom, img, col, c []float32, ldc int) {
	n := g.N()
	if g.Pointwise() {
		GemmPrepacked(pre, false, n, img, n, 0, c, ldc)
		return
	}
	if cl := g.ColLen(pre.m); cl > 0 {
		col = col[:cl]
		Im2col(img, g.C, g.H, g.W, g.Ksize, g.Stride, g.Pad, col)
		GemmPrepacked(pre, false, n, col, n, 0, c, ldc)
		return
	}
	gemmScaleC(0, pre.m, n, c, ldc)
	if pre.alpha == 0 {
		return
	}
	kern := currentKernels()
	data := pre.data
	if kern != pre.kern {
		data = nil
	}
	gemmConvPacked(kern, g, pre.m, pre.ta, pre.alpha, pre.a, pre.lda, img, c, ldc, data)
}

// Col2im scatters a column matrix back into a CHW image, accumulating
// overlapping contributions. It is the adjoint of Im2col and is used by the
// convolution backward pass to form input gradients. img must be
// zero-initialized by the caller if a fresh gradient is wanted.
func Col2im(col []float32, channels, height, width, ksize, stride, pad int, img []float32) {
	outH := (height+2*pad-ksize)/stride + 1
	outW := (width+2*pad-ksize)/stride + 1
	colsPerRow := outH * outW
	rows := channels * ksize * ksize
	for r := 0; r < rows; r++ {
		wOff := r % ksize
		hOff := (r / ksize) % ksize
		ch := r / (ksize * ksize)
		dst := img[ch*height*width:]
		src := col[r*colsPerRow:]
		for oh := 0; oh < outH; oh++ {
			ih := oh*stride - pad + hOff
			if ih < 0 || ih >= height {
				continue
			}
			drow := dst[ih*width:]
			base := oh * outW
			for ow := 0; ow < outW; ow++ {
				iw := ow*stride - pad + wOff
				if iw >= 0 && iw < width {
					drow[iw] += src[base+ow]
				}
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size ksize with the given stride and padding applied to an input
// of size in.
func ConvOutSize(in, ksize, stride, pad int) int {
	return (in+2*pad-ksize)/stride + 1
}
