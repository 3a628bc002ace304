package stats

import (
	"math"
	"testing"
)

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{"exact", 1.5, 1.5, 1e-12, true},
		{"within-rel", 1e12, 1e12 * (1 + 1e-10), 1e-9, true},
		{"outside-rel", 1e12, 1e12 * (1 + 1e-8), 1e-9, false},
		{"near-zero-abs", 0, 1e-12, 1e-9, true},
		{"near-zero-outside", 0, 1e-6, 1e-9, false},
		{"both-zero", 0, 0, 0, true},
		{"signed-zero", 0, math.Copysign(0, -1), 0, true},
		{"nan-left", math.NaN(), 1, 1e-3, false},
		{"nan-both", math.NaN(), math.NaN(), 1e-3, false},
		{"inf-equal", math.Inf(1), math.Inf(1), 1e-9, true},
		{"inf-mixed", math.Inf(1), math.Inf(-1), 1e-9, false},
		{"inf-vs-finite", math.Inf(1), 1e300, 1e-9, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("%s: ApproxEqual(%v, %v, %v) = %v, want %v",
				c.name, c.a, c.b, c.tol, got, c.want)
		}
	}
}
