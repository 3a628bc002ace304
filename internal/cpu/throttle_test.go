package cpu

import (
	"testing"

	"repro/internal/sim"
)

func TestThrottleStretchesServiceTime(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPool(eng, XeonGold6140(), 1)
	full := p.ServiceTime(2100)
	p.SetThrottle(0.5)
	halved := p.ServiceTime(2100)
	if halved != full*2 {
		t.Fatalf("service at half frequency = %v, want %v (2x %v)", halved, full*2, full)
	}
	p.SetThrottle(1)
	if got := p.ServiceTime(2100); got != full {
		t.Fatalf("service after unthrottle = %v, want %v", got, full)
	}
}

func TestThrottleRejectsBadFactors(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPool(eng, BlueField2Arm(), 1)
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetThrottle(%v) did not panic", f)
				}
			}()
			p.SetThrottle(f)
		}()
	}
}
