package rng

import (
	"math"
	"testing"

	"repro/internal/la"
)

// firstPairRejected is a stream key whose first polar pair falls outside
// the unit disc, so its lane starts with a rejection.
const firstPairRejected = 6

func TestFirstPairRejectedKey(t *testing.T) {
	r := New(firstPairRejected)
	u := float64(2*r.Float64()) - 1
	v := float64(2*r.Float64()) - 1
	if s := float64(u*u) + float64(v*v); s < 1 {
		t.Fatalf("key %d: first pair has s = %v, want ≥ 1", firstPairRejected, s)
	}
}

// checkFillNormLanes runs FillNormLanes (the AVX2 body where it runs) and
// fillNormLanesGo on k normals per lane, n lanes, each into a buffer with
// canary words on both sides, and requires the two buffers equal bit for
// bit: lanes < n equal, lanes ≥ n and the canaries untouched by either.
func checkFillNormLanes(t *testing.T, keys [la.Lanes]uint64, k, n int) {
	t.Helper()
	const pad = 5
	got := make([]float64, pad+la.Lanes*k+pad)
	for i := range got {
		got[i] = math.Float64frombits(0x7ff4_0000_0000_0000 | uint64(i)) // signalling NaNs
	}
	want := append([]float64(nil), got...)
	FillNormLanes(got[pad:pad+la.Lanes*k], keys, n)
	fillNormLanesGo(want[pad:pad+la.Lanes*k], keys, n)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			j := i - pad
			t.Fatalf("keys %x, K = %d, n = %d: word %d (row %d, lane %d) = %x, Go body %x",
				keys, k, n, i, j/la.Lanes, j%la.Lanes, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestFillNormLanesMatchesGo(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 13, 32, 33, 64, 67} {
		for n := 1; n <= la.Lanes; n++ {
			for trial := range uint64(50) {
				keys := [la.Lanes]uint64{
					Mix(trial, 1, uint64(k)), Mix(trial, 2, uint64(k)),
					Mix(trial, 3, uint64(k)), Mix(trial, 4, uint64(k)),
				}
				if trial == 0 {
					keys[0] = firstPairRejected
				}
				checkFillNormLanes(t, keys, k, n)
			}
		}
	}
}

// The Go body is the definition: lane l is New(keys[l]).FillNorm.
func TestFillNormLanesIsFillNorm(t *testing.T) {
	const k = 9
	keys := [la.Lanes]uint64{firstPairRejected, 1, 0, 0xdeadbeef}
	dst := make([]float64, la.Lanes*k)
	FillNormLanes(dst, keys, la.Lanes)
	want := make([]float64, k)
	got := make([]float64, k)
	for l, key := range keys {
		New(key).FillNorm(want)
		la.LaneInto(got, dst, l)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("lane %d normal %d = %v, FillNorm %v", l, i, got[i], want[i])
			}
		}
	}
}

func TestFillNormLanesZeroAllocs(t *testing.T) {
	dst := make([]float64, la.Lanes*32)
	keys := [la.Lanes]uint64{1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(100, func() {
		FillNormLanes(dst, keys, 3)
	}); allocs != 0 {
		t.Fatalf("FillNormLanes allocates %v/op, want 0", allocs)
	}
}

func TestFillNormLanesPanics(t *testing.T) {
	keys := [la.Lanes]uint64{}
	for _, c := range []struct{ len, n int }{{5, 1}, {8, -1}, {8, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("len %d, n %d: no panic", c.len, c.n)
				}
			}()
			FillNormLanes(make([]float64, c.len), keys, c.n)
		}()
	}
}

// FuzzFillNormLanes compares the dispatched fill with the Go body on
// fuzzed keys, K in [1, 80] and n in [1, 4]. Under the purego tag, or
// without AVX2, the comparison is Go against Go.
func FuzzFillNormLanes(f *testing.F) {
	for _, k := range []uint8{1, 2, 3, 7, 32, 33, 67} {
		f.Add(uint64(k), uint64(k)<<32|1, ^uint64(k), uint64(0), k-1, uint8(3))
	}
	f.Add(uint64(firstPairRejected), uint64(firstPairRejected), uint64(9), uint64(16), uint8(31), uint8(1))
	f.Fuzz(func(t *testing.T, k0, k1, k2, k3 uint64, k, n uint8) {
		checkFillNormLanes(t, [la.Lanes]uint64{k0, k1, k2, k3}, 1+int(k)%80, 1+int(n)%la.Lanes)
	})
}

// BenchmarkFillNormLanes times one group's K = 32 normals per lane: four
// Reinit + FillNorm streams packed into the lane layout, against one lane
// fill.
func BenchmarkFillNormLanes(b *testing.B) {
	const k = 32
	dst := make([]float64, la.Lanes*k)
	var key uint64
	b.Run("streams", func(b *testing.B) {
		buf := make([]float64, k)
		var r Stream
		for b.Loop() {
			for l := range la.Lanes {
				key++
				r.Reinit(key)
				r.FillNorm(buf)
				la.SetLane(dst, l, buf)
			}
		}
	})
	b.Run("lanes", func(b *testing.B) {
		for b.Loop() {
			key += la.Lanes
			FillNormLanes(dst, [la.Lanes]uint64{key, key + 1, key + 2, key + 3}, la.Lanes)
		}
	})
}
