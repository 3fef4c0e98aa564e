package detect

import (
	"math"
	"testing"
)

// finite bounds the fuzzed coordinates: IoU's geometric invariants hold for
// any finite boxes, but astronomically large extents overflow float64 area
// arithmetic to +Inf (Inf/Inf = NaN), which is an accepted numeric
// limitation, not a logic bug.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
			return false
		}
	}
	return true
}

// FuzzIoU checks the IoU invariants on arbitrary (possibly degenerate or
// inverted) boxes: no panic, result in [0,1], symmetry, and identity on a
// box with positive area.
func FuzzIoU(f *testing.F) {
	f.Add(0.5, 0.5, 0.2, 0.2, 0.5, 0.5, 0.2, 0.2)
	f.Add(0.1, 0.1, 0.0, 0.0, 0.9, 0.9, -1.0, 2.0)
	f.Add(0.0, 0.0, 1e6, 1e6, 1.0, 1.0, 1e-9, 1e-9)
	f.Fuzz(func(t *testing.T, x1, y1, w1, h1, x2, y2, w2, h2 float64) {
		if !finite(x1, y1, w1, h1, x2, y2, w2, h2) {
			t.Skip("non-finite or overflow-prone input")
		}
		a := Box{X: x1, Y: y1, W: w1, H: h1}
		b := Box{X: x2, Y: y2, W: w2, H: h2}
		iou := IoU(a, b)
		if math.IsNaN(iou) || iou < 0 || iou > 1 {
			t.Fatalf("IoU(%+v, %+v) = %v, want [0,1]", a, b, iou)
		}
		if rev := IoU(b, a); math.Abs(iou-rev) > 1e-12 {
			t.Fatalf("IoU not symmetric: %v vs %v", iou, rev)
		}
		if a.Area() > 0 {
			if self := IoU(a, a); math.Abs(self-1) > 1e-9 {
				t.Fatalf("IoU(a, a) = %v for positive-area box %+v, want 1", self, a)
			}
		}
		if Intersection(a, b) == 0 && iou != 0 {
			t.Fatalf("disjoint boxes with IoU %v", iou)
		}
	})
}

// decodeDetections derives a deterministic detection list from fuzz bytes:
// five bytes per detection give center, size, score and class. Coordinates
// may exceed [0,1] and sizes may be zero — NMS must cope with both.
func decodeDetections(data []byte) []Detection {
	var dets []Detection
	for i := 0; i+5 <= len(data); i += 5 {
		dets = append(dets, Detection{
			Box: Box{
				X: float64(data[i]) / 128.0,
				Y: float64(data[i+1]) / 128.0,
				W: float64(data[i+2]) / 255.0,
				H: float64(data[i+3]) / 255.0,
			},
			Score: float64(data[i+4]) / 255.0,
			Class: int(data[i+4]) % 3,
		})
	}
	return dets
}

// FuzzNMS checks the suppression invariants on arbitrary detection sets: no
// panic, the output is a subset of the input, scores are descending, no two
// kept detections of the same class overlap above the threshold, and the
// kept set is identical to the plain greedy scan's (the oracle for the
// disjoint-pair skip).
func FuzzNMS(f *testing.F) {
	f.Add([]byte{}, 0.45)
	f.Add([]byte{64, 64, 128, 128, 200, 64, 64, 128, 128, 100}, 0.45)
	f.Add([]byte{0, 0, 0, 0, 0, 255, 255, 255, 255, 255}, 0.0)
	f.Add([]byte{10, 10, 20, 20, 3, 200, 200, 20, 20, 6}, -0.5) // disjoint, same class: suppressed below 0
	f.Fuzz(func(t *testing.T, data []byte, thresh float64) {
		if math.IsNaN(thresh) || math.IsInf(thresh, 0) {
			t.Skip("non-finite threshold")
		}
		dets := decodeDetections(data)
		input := make([]Detection, len(dets))
		copy(input, dets)

		kept := NMS(dets, thresh)

		want := suppress(byScore(dets), thresh)
		if len(kept) != len(want) {
			t.Fatalf("NMS kept %d detections, plain scan %d", len(kept), len(want))
		}
		for i := range want {
			if kept[i] != want[i] {
				t.Fatalf("kept[%d] = %+v, plain scan %+v", i, kept[i], want[i])
			}
		}

		if len(kept) > len(dets) {
			t.Fatalf("NMS grew the set: %d -> %d", len(dets), len(kept))
		}
		for i, d := range dets {
			if d != input[i] {
				t.Fatal("NMS mutated its input slice")
			}
		}
		// Subset: every kept detection appears in the input at least as often
		// as it is kept (duplicates are legal input).
		counts := make(map[Detection]int)
		for _, d := range input {
			counts[d]++
		}
		for _, k := range kept {
			counts[k]--
			if counts[k] < 0 {
				t.Fatalf("kept detection %+v not in (or kept more often than) input", k)
			}
		}
		for i := 1; i < len(kept); i++ {
			if kept[i].Score > kept[i-1].Score {
				t.Fatalf("kept scores not descending at %d: %v after %v", i, kept[i].Score, kept[i-1].Score)
			}
		}
		for i := 0; i < len(kept); i++ {
			for j := i + 1; j < len(kept); j++ {
				if kept[i].Class == kept[j].Class && IoU(kept[i].Box, kept[j].Box) > thresh {
					t.Fatalf("kept pair %d,%d of class %d overlaps above thresh %v (IoU %v)",
						i, j, kept[i].Class, thresh, IoU(kept[i].Box, kept[j].Box))
				}
			}
		}
	})
}
