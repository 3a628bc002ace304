package stats

import "math"

// ApproxEqual reports whether a and b agree within tol. tol bounds the
// relative error for magnitudes above 1 and the absolute error below,
// so callers need not special-case values near zero. NaN compares
// unequal to everything, like ==; equal infinities compare equal.
//
// This is the helper the floateq lint analyzer points at: exact
// floating-point == in model code silently depends on evaluation
// order, while an explicit tolerance documents the intended precision.
func ApproxEqual(a, b, tol float64) bool {
	if a == b { //snicvet:ignore floateq exact fast path; also the only correct way to match equal infinities
		return true
	}
	// Past the fast path, any infinity is a mismatch: inf-vs-finite
	// and opposite infinities both produce an infinite difference that
	// would otherwise satisfy diff <= tol*inf.
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	diff := math.Abs(a - b)
	if math.IsNaN(diff) {
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}
