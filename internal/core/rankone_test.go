package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// cholUpdateStrided is the rank-one update before the factor was held
// transposed: one vector at a time on the lower factor L, column k walked
// at stride K, math.Hypot.
func cholUpdateStrided(l *la.Matrix, x la.Vector) {
	n := l.Rows
	for k := 0; k < n; k++ {
		lkk, xk := l.At(k, k), x[k]
		r := math.Hypot(lkk, xk)
		c, s := r/lkk, xk/lkk
		l.Set(k, k, r)
		invC := 1 / c
		for i := k + 1; i < n; i++ {
			v := (l.At(i, k) + float64(s*x[i])) * invC
			x[i] = float64(c*x[i]) - float64(s*v)
			l.Set(i, k, v)
		}
	}
}

// rankOneReference is the scalar rank-one draw the lanes replaced, kept as
// their bit reference: Λ's lower factor l updated with sqrt(α)·x one rating
// at a time, the rhs Λμ + α Σ r_j x_j, then SolveSPD and MVNFromPrecChol on
// the updated factor, with the item's stream.
func rankOneReference(alpha float64, l *la.Matrix, lambdaMu la.Vector, cols []int32, vals []float64,
	other *la.Matrix, stream *rng.Stream) la.Vector {
	k := l.Rows
	f, rhs := l.Clone(), lambdaMu.Clone()
	for p, c := range cols {
		x := other.Row(int(c)).Clone()
		la.Scal(math.Sqrt(alpha), x)
		cholUpdateStrided(f, x)
		la.Axpy(alpha*vals[p], other.Row(int(c)), rhs)
	}
	mu, out, scratch := la.NewVector(k), la.NewVector(k), la.NewVector(k)
	la.SolveSPD(f, rhs, mu, scratch)
	stream.MVNFromPrecChol(mu, f, out, scratch)
	return out
}

// storageOrder is the identity walk of n items.
func storageOrder(n int) []int32 {
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	return ord
}

// sameFloat is equality of bit patterns, any NaN equal to any NaN: which
// operand's payload an x86 operation propagates is not part of the chain.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// lowerOf returns Λ's lower Cholesky factor, bit-equal to the one
// SampleHyperWS transposes into hyper.LambdaUpper.
func lowerOf(t *testing.T, h *Hyper) *la.Matrix {
	t.Helper()
	l := la.NewMatrix(h.Lambda.Rows, h.Lambda.Rows)
	if err := la.Cholesky(h.Lambda, l); err != nil {
		t.Fatal(err)
	}
	return l
}

// plantNegZeros sets about one strictly-lower element of l in four to −0
// and broadcasts l into h.LambdaUpper again, so the factor the lanes start
// from and the reference's stay one factor.
func plantNegZeros(r *rand.Rand, h *Hyper, l *la.Matrix) {
	for i := 0; i < l.Rows; i++ {
		for j := 0; j < i; j++ {
			if r.Intn(4) == 0 {
				l.Set(i, j, math.Copysign(0, -1))
			}
		}
	}
	la.BroadcastUpperT(h.LambdaUpper, l)
}

// windowProblem builds a rating matrix whose rows have the given degrees:
// row i rates degs[i] distinct partners, drawn from the first nOther-4 for
// a Cholesky-kernel row and from all nOther for a rank-one row (the last
// four partners are where the special values go).
func windowProblem(r *rand.Rand, cfg *Config, degs []int, nOther int) *Problem {
	a := &sparse.CSR{M: len(degs), N: nOther, RowPtr: make([]int64, 1, len(degs)+1)}
	for _, d := range degs {
		pool := nOther
		if cfg.SelectKernel(d) != KernelRankOne {
			pool -= 4
		}
		for _, c := range r.Perm(pool)[:d] {
			a.Col = append(a.Col, int32(c))
		}
		row := a.Col[len(a.Col)-d:]
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j-1] > row[j]; j-- {
				row[j-1], row[j] = row[j], row[j-1]
			}
		}
		for range row {
			a.Val = append(a.Val, 1+4*r.Float64())
		}
		a.RowPtr = append(a.RowPtr, int64(len(a.Col)))
	}
	return NewProblem(a, nil)
}

// TestUpdateRangeMatchesScalarReference: a sweep's four-lane groups draw
// every item bit-equal to the scalar reference, item by item, for windows
// whose rank-one items fill one to four lanes per group, degree mixes from
// 0 to 24 with and without a serial-Cholesky item among them, K ∈ {1, 2, 3,
// 7, 32, 67}, −0 planted in the hyper's factor and in the partner rows, and
// (every third window) partner rows carrying ±Inf, NaN and ±0 into the
// hypot. Each window is swept whole, under a permutation, and split into
// two ranges.
func TestUpdateRangeMatchesScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	windows := [][]int{
		{3}, {0, 5}, {1, 1, 1}, {2, 9, 4, 24}, {0, 0, 0, 0, 1}, {0, 0, 0, 0, 0, 1, 1, 2},
		{24, 23, 22, 21, 20, 19, 18, 17}, {0, 30, 1, 2, 3, 4, 5, 6}, {5, 0, 13, 40, 24, 0, 7},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, {26, 0},
	}
	for i := 0; i < 8; i++ {
		w := make([]int, 1+r.Intn(8))
		for j := range w {
			w[j] = r.Intn(25)
		}
		if i%2 == 1 {
			w[r.Intn(len(w))] = 25 + r.Intn(30)
		}
		windows = append(windows, w)
	}
	for _, k := range []int{1, 2, 3, 7, 32, 67} {
		cfg := DefaultConfig()
		cfg.K = k
		for wi, degs := range windows {
			const nOther = 64
			prob := windowProblem(r, &cfg, degs, nOther)
			s, err := NewSampler(cfg, prob)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMoments(k)
			m.AccumulateRows(s.V, 0, nOther)
			SampleHyperWS(s.Prior, m, HyperStream(cfg.Seed, wi, SideU), s.HU, NewHyperWorkspace(k))
			l := lowerOf(t, s.HU)
			plantNegZeros(r, s.HU, l)
			for i := 0; i < nOther*k; i++ {
				if r.Intn(5) == 0 {
					s.V.Data[i] = math.Copysign(0, -1)
				}
			}
			special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
			for i := (nOther - 4) * k; i < nOther*k && wi%3 == 0; i++ {
				if r.Intn(3) == 0 {
					s.V.Data[i] = special[r.Intn(len(special))]
				}
			}

			want := make([]la.Vector, len(degs))
			for item := range degs {
				cols, vals := prob.R.Row(item)
				stream := rng.New(itemKey(cfg.Seed, 4, SideU, item))
				if kern := cfg.SelectKernel(len(cols)); kern != KernelRankOne {
					want[item] = la.NewVector(k)
					UpdateItem(NewWorkspace(k), kern, &cfg, cols, vals, s.V, s.HU, stream, nil, nil, want[item])
					continue
				}
				want[item] = rankOneReference(cfg.Alpha, l, s.HU.LambdaMu, cols, vals, s.V, stream)
			}
			perm := make([]int32, len(degs))
			for i, p := range r.Perm(len(degs)) {
				perm[i] = int32(p)
			}
			split := r.Intn(len(degs) + 1)
			for _, sweep := range []struct {
				name string
				ord  []int32
				cuts []int
			}{{"whole", storageOrder(len(degs)), []int{0, len(degs)}}, {"permuted", perm, []int{0, len(degs)}}, {"split", perm, []int{0, split, len(degs)}}} {
				s.U.Zero()
				for c := 1; c < len(sweep.cuts); c++ {
					s.UpdateRange(SideU, 4, sweep.ord, sweep.cuts[c-1], sweep.cuts[c], nil)
				}
				for item := range degs {
					got := s.U.Row(item)
					for i := range got {
						if !sameFloat(got[i], want[item][i]) {
							t.Fatalf("K=%d window %v %s: item %d (degree %d) element %d is %v (%#x), scalar reference %v (%#x)",
								k, degs, sweep.name, item, degs[item], i, got[i], math.Float64bits(got[i]),
								want[item][i], math.Float64bits(want[item][i]))
						}
					}
				}
			}
		}
	}
}
