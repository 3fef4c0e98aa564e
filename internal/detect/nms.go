package detect

import "sort"

// Detection is a scored, classified box produced by decoding the network
// output.
type Detection struct {
	Box   Box
	Class int
	// Score is the detection confidence: objectness times class probability.
	Score float64
}

// NMS performs per-class greedy non-maximum suppression: detections are
// processed in descending score order and any detection overlapping an
// already-kept detection of the same class with IoU > thresh is dropped.
// The input slice is not modified; the result is sorted by descending score.
//
// A pair whose boxes do not overlap has IoU 0, which never exceeds a
// threshold ≥ 0, so for those thresholds the scan rejects such pairs from
// precomputed edges — the same float operations Intersection performs —
// before paying for IoU. A negative threshold suppresses disjoint boxes
// too and takes the plain scan.
func NMS(dets []Detection, thresh float64) []Detection {
	if len(dets) == 0 {
		return nil
	}
	sorted := byScore(dets)
	if thresh < 0 {
		return suppress(sorted, thresh)
	}
	kept := make([]Detection, 0, len(sorted))
	keptEdges := make([]edges, 0, len(sorted))
	for _, d := range sorted {
		e := edgesOf(d.Box)
		suppressed := false
		for i, k := range kept {
			if k.Class != d.Class || keptEdges[i].disjoint(e) {
				continue
			}
			if IoU(k.Box, d.Box) > thresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
			keptEdges = append(keptEdges, e)
		}
	}
	return kept
}

// byScore returns a copy of dets stably sorted by descending score.
func byScore(dets []Detection) []Detection {
	sorted := make([]Detection, len(dets))
	copy(sorted, dets)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	return sorted
}

// suppress is the plain greedy scan over score-sorted detections: IoU
// against every kept detection of the same class.
func suppress(sorted []Detection, thresh float64) []Detection {
	kept := make([]Detection, 0, len(sorted))
	for _, d := range sorted {
		suppressed := false
		for _, k := range kept {
			if k.Class == d.Class && IoU(k.Box, d.Box) > thresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// edges are a box's sides, as Left, Right, Top and Bottom compute them.
type edges struct{ l, r, t, b float64 }

func edgesOf(b Box) edges { return edges{b.Left(), b.Right(), b.Top(), b.Bottom()} }

// disjoint reports whether Intersection(k, d) is 0 for the boxes with edges
// k (the receiver) and d, by the same operations in the same order. The
// builtin min and max follow math.Min and math.Max exactly (NaN, ±0 and
// infinities included) and compile inline.
func (k edges) disjoint(d edges) bool {
	w := min(k.r, d.r) - max(k.l, d.l)
	h := min(k.b, d.b) - max(k.t, d.t)
	return w <= 0 || h <= 0
}

// FilterScore returns the detections with Score >= thresh, preserving order.
func FilterScore(dets []Detection, thresh float64) []Detection {
	out := make([]Detection, 0, len(dets))
	for _, d := range dets {
		if d.Score >= thresh {
			out = append(out, d)
		}
	}
	return out
}
