package rng

import (
	"flag"
	"math"
	"runtime"
	"testing"
)

var logValues = flag.Int("log.values", 1_000_000, "polar s values TestLogMatchesMath compares")

// checkLog fails t unless log(x) is math.Log(x) bit for bit. On amd64
// math.Log is log_amd64.s (archLog), which log ports operation for
// operation. Elsewhere math.Log is math/log.go's body, which reduces at <
// instead of ≤ and may fuse its products, so there it asks for 1 ulp, and
// log's own bits are what the chain follows.
func checkLog(t *testing.T, what string, x float64) {
	t.Helper()
	got, want := log(x), math.Log(x)
	gb, wb := math.Float64bits(got), math.Float64bits(want)
	if gb == wb {
		return
	}
	if runtime.GOARCH != "amd64" && !math.IsNaN(want) &&
		(got == math.Nextafter(want, math.Inf(1)) || got == math.Nextafter(want, math.Inf(-1))) {
		return
	}
	t.Fatalf("%s: log(%v) [%x] = %x, math.Log %x", what, x, math.Float64bits(x), gb, wb)
}

func TestLogMatchesMath(t *testing.T) {
	// The polar method's s, from real keyed streams, as Norm computes it.
	n := 0
	for key := uint64(0); n < *logValues; key++ {
		r := NewKeyed(11, key)
		for range 1000 {
			u := float64(2*r.Float64()) - 1
			v := float64(2*r.Float64()) - 1
			if s := float64(u*u) + float64(v*v); s < 1 && s != 0 {
				checkLog(t, "polar s", s)
				n++
			}
		}
	}

	// Marsaglia–Tsang's u and v, as Gamma computes them, over the shapes
	// the Wishart draw's chi-squares take and a few below 1.
	mt := 0
	for _, shape := range []float64{0.3, 0.5, 1, 1.5, 2, 3.5, 8, 16.5, 100, 1e4} {
		r := NewKeyed(12, math.Float64bits(shape))
		d := shape - 1.0/3.0
		if shape < 1 {
			d = shape + 1 - 1.0/3.0
		}
		c := 1 / math.Sqrt(9*d)
		for range 20_000 {
			v := 1 + float64(c*r.Norm())
			if v <= 0 {
				continue
			}
			checkLog(t, "gamma v", float64(v*v*v))
			checkLog(t, "gamma u", r.Float64())
			mt += 2
		}
	}

	// Every normal exponent against the mantissa's edges, √2/2 and its
	// neighbours among them.
	const sqrtHalf = 0x6A09E667F3BCD
	mantissas := []uint64{0, 1, 2, 3, 1 << 51, 1<<51 - 1, 1<<51 + 1, 1<<52 - 2, 1<<52 - 1,
		sqrtHalf - 2, sqrtHalf - 1, sqrtHalf, sqrtHalf + 1, sqrtHalf + 2, 0x5555555555555, 0xAAAAAAAAAAAAA}
	for e := uint64(1); e < 0x7FF; e++ {
		for _, m := range mantissas {
			checkLog(t, "grid", math.Float64frombits(e<<52|m))
		}
	}
	t.Logf("%s: %d polar s, %d gamma u and v, %d grid points", runtime.GOARCH, n, mt, 0x7FE*len(mantissas))

	// 1, its neighbours and the special cases.
	for _, x := range []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2), 2, 0.5,
		math.MaxFloat64, math.SmallestNonzeroFloat64 * (1 << 52),
		0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN()} {
		checkLog(t, "special", x)
	}

	// Subnormals: log_amd64.s reads the exponent field as it is and is far
	// off; log normalises as math/log.go does, so it continues the normal
	// range smoothly: log(x) = log(x·2⁵²) − 52·ln 2 to rounding.
	for _, x := range []float64{math.SmallestNonzeroFloat64, 1e-310, 2.2e-308, math.Float64frombits(1<<52 - 1)} {
		got, want := log(x), log(x*(1<<52))-52*math.Ln2
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("subnormal %v: log = %v, want %v", x, got, want)
		}
	}
}
