package tensor

import "math"

// LeakySlope is the negative-region slope used by all leaky-ReLU
// activations in the framework, matching Darknet's 0.1.
const LeakySlope = 0.1

// Sigmoid returns the logistic function of x.
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// SigmoidGrad returns dσ/dx given y = σ(x).
func SigmoidGrad(y float32) float32 { return y * (1 - y) }

// Exp32 is a float32 convenience wrapper around math.Exp.
func Exp32(x float32) float32 { return float32(math.Exp(float64(x))) }

// Log32 is a float32 convenience wrapper around math.Log.
func Log32(x float32) float32 { return float32(math.Log(float64(x))) }

// Leaky applies the leaky-ReLU activation in place.
func Leaky(x []float32) {
	for i, v := range x {
		x[i] = LeakyValue(v)
	}
}

// LeakyValue is the leaky ReLU of one value: LeakySlope·v when v < 0, else
// v. It selects between the two bit patterns instead of branching, since
// the sign of a fresh activation is a coin flip that a branch mispredicts
// half the time (the compiler emits conditional moves for integer selects
// only).
func LeakyValue(v float32) float32 {
	bits := math.Float32bits(v)
	if neg := math.Float32bits(LeakySlope * v); v < 0 {
		bits = neg
	}
	return math.Float32frombits(bits)
}

// LeakyGrad multiplies grad by the leaky-ReLU derivative evaluated at the
// pre-activation sign, which equals the sign of the activated output.
func LeakyGrad(out, grad []float32) {
	for i, v := range out {
		if v < 0 {
			grad[i] *= LeakySlope
		}
	}
}

// Softmax writes the softmax of src into dst using the max-subtraction
// trick for numerical stability. len(dst) must equal len(src).
func Softmax(src, dst []float32) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - maxv))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}
