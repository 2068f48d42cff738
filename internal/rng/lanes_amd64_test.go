//go:build amd64 && !purego

package rng

import (
	"math"
	"testing"

	"repro/internal/la"
)

// TestLaneLogMatchesLog holds the fill's vector logarithm to log bit for
// bit on every normal exponent against the mantissa edges (√2/2, where
// the reduction's ≤ matters, among them) and on polar s values. The fill's
// own comparison rarely meets the boundary: it needs an s whose mantissa
// is exactly √2/2's.
func TestLaneLogMatchesLog(t *testing.T) {
	if !la.HasAVX2 {
		t.Skip("no AVX2")
	}
	var xs []float64
	const sqrtHalf = 0x6A09E667F3BCD
	for e := uint64(1); e < 0x7FF; e++ {
		for _, m := range []uint64{0, 1, 1<<51 - 1, 1 << 51, 1<<52 - 1,
			sqrtHalf - 1, sqrtHalf, sqrtHalf + 1} {
			xs = append(xs, math.Float64frombits(e<<52|m))
		}
	}
	r := NewKeyed(13)
	for len(xs)%la.Lanes != 0 || len(xs) < 200_000 {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		if s := float64(u*u) + float64(v*v); s < 1 && s != 0 {
			xs = append(xs, s)
		}
	}
	for i := 0; i < len(xs); i += la.Lanes {
		var x [la.Lanes]float64
		copy(x[:], xs[i:])
		log4AVX2(&x)
		for l, got := range x {
			if want := log(xs[i+l]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("lane log(%v) [%x] = %x, log %x", xs[i+l], math.Float64bits(xs[i+l]),
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}
