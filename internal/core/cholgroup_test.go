package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/rng"
)

// cholGroupConfig lowers the parallel kernel's threshold so that a
// 64-partner window holds all three kernels: degrees 0–24 rank-one, 25–49
// serial Cholesky, 50–60 parallel Cholesky (chunks of 16 ratings).
func cholGroupConfig(k int) Config {
	cfg := DefaultConfig()
	cfg.K = k
	cfg.KernelThreshold, cfg.ParallelGrain = 50, 16
	return cfg
}

// cholGroupWindows are the degree lists of the test's problems: the
// serial-Cholesky items fill groups of one to four, alone, after and
// around parallel-Cholesky items (which close the group before them) and
// among rank-one items, across more than one window of ItemGrain.
func cholGroupWindows(r *rand.Rand) [][]int {
	windows := [][]int{
		{30}, {30, 31}, {25, 49, 40}, {26, 27, 28, 29}, {30, 31, 32, 33, 34},
		{30, 55, 31, 32}, {55, 30, 31, 56, 32, 33, 34, 35, 36},
		{0, 30, 5, 40, 55, 26, 3, 41, 42, 43, 24, 44},
		{1, 2, 3, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 0, 60, 45},
	}
	for i := 0; i < 6; i++ {
		w := make([]int, 1+r.Intn(20))
		for j := range w {
			w[j] = r.Intn(61)
		}
		windows = append(windows, w)
	}
	return windows
}

// cholGroupSampler builds a sampler over degs whose U hyperparameters are
// a posterior draw (so Λ is no multiple of the identity), with −0 planted
// in a fifth of the partner rows' elements, and two moment groups on U so
// that the lane order has an edge inside the window.
func cholGroupSampler(t *testing.T, r *rand.Rand, cfg Config, degs []int, wi int) *Sampler {
	t.Helper()
	const nOther = 64
	prob := windowProblem(r, &cfg, degs, nOther)
	cfg.MomentGroupsU = []int{0, len(degs) / 2, len(degs)}
	s, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	k := cfg.K
	m := NewMoments(k)
	m.AccumulateRows(s.V, 0, nOther)
	SampleHyperWS(s.Prior, m, HyperStream(cfg.Seed, wi, SideU), s.HU, NewHyperWorkspace(k))
	for i := range s.V.Data {
		if r.Intn(5) == 0 {
			s.V.Data[i] = math.Copysign(0, -1)
		}
	}
	return s
}

// loneDraw is UpdateItem alone on item of side U for iteration iter: a
// fresh workspace and the item's keyed stream. It returns the sample, or
// the panic's message if the draw panics.
func loneDraw(s *Sampler, iter, item int) (out la.Vector, msg string) {
	out = la.NewVector(s.Cfg.K)
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	cols, vals := s.Prob.R.Row(item)
	UpdateItem(NewWorkspace(s.Cfg.K), s.Cfg.SelectKernel(len(cols)), &s.Cfg, cols, vals, s.V, s.HU,
		rng.New(itemKey(s.Cfg.Seed, iter, SideU, item)), nil, nil, out)
	return out, ""
}

// sweepPanic runs the ranges of ord cut at cuts and returns the panic's
// message, or "" if the sweep completes.
func sweepPanic(s *Sampler, iter int, ord []int32, cuts []int) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	for c := 1; c < len(cuts); c++ {
		s.UpdateRange(SideU, iter, ord, cuts[c-1], cuts[c], nil)
	}
	return ""
}

// sweepsOf are the walks each problem is swept by: the lane order (whose
// moment-group edge splits the Cholesky items in two runs), storage order,
// a permutation whole and split into two ranges.
func sweepsOf(r *rand.Rand, s *Sampler, n int) []struct {
	name string
	ord  []int32
	cuts []int
} {
	lane, _ := s.Order(SideU)
	perm := make([]int32, n)
	for i, p := range r.Perm(n) {
		perm[i] = int32(p)
	}
	return []struct {
		name string
		ord  []int32
		cuts []int
	}{
		{"lane order", lane, []int{0, n}},
		{"storage", storageOrder(n), []int{0, n}},
		{"permuted", perm, []int{0, n}},
		{"split", perm, []int{0, r.Intn(n + 1), n}},
	}
}

// TestCholeskyGroupsMatchLone: a sweep draws its serial-Cholesky items in
// lane groups, and every item — serial Cholesky, parallel Cholesky and
// rank-one alike — is bit-equal to UpdateItem drawing it alone (n = 1), at
// K = 1, 3, 32 and 37, for groups of one to four, windows mixing the three
// kernels, across a moment-group edge, whole, permuted and split.
func TestCholeskyGroupsMatchLone(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	windows := cholGroupWindows(r)
	for _, k := range []int{1, 3, 32, 37} {
		cfg := cholGroupConfig(k)
		for wi, degs := range windows {
			s := cholGroupSampler(t, r, cfg, degs, wi)
			const iter = 3
			want := make([]la.Vector, len(degs))
			for item := range degs {
				var msg string
				if want[item], msg = loneDraw(s, iter, item); msg != "" {
					t.Fatalf("K=%d window %v: item %d drawn alone panics: %s", k, degs, item, msg)
				}
			}
			for _, sw := range sweepsOf(r, s, len(degs)) {
				s.U.Zero()
				if msg := sweepPanic(s, iter, sw.ord, sw.cuts); msg != "" {
					t.Fatalf("K=%d window %v %s: sweep panics: %s", k, degs, sw.name, msg)
				}
				for item := range degs {
					got := s.U.Row(item)
					for i := range got {
						if !sameFloat(got[i], want[item][i]) {
							t.Fatalf("K=%d window %v %s: item %d (degree %d, %v) element %d is %v (%#x), alone %v (%#x)",
								k, degs, sw.name, item, degs[item], cfg.SelectKernel(degs[item]), i,
								got[i], math.Float64bits(got[i]), want[item][i], math.Float64bits(want[item][i]))
						}
					}
				}
			}
		}
	}
}

// TestCholeskyGroupDamagedLambdaPanicsAsLone damages Λ's first pivot by
// degrees, from none, through negative values that refuse some items'
// precisions and not others, to −1e300 and NaN: a sweep must panic
// exactly when one of its Cholesky-kernel items drawn alone in range order
// would, with the first such item's message.
func TestCholeskyGroupDamagedLambdaPanicsAsLone(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	windows := cholGroupWindows(r)
	const iter = 5
	fired := map[bool]int{}
	for _, k := range []int{1, 3, 32} {
		cfg := cholGroupConfig(k)
		for wi, degs := range windows {
			s := cholGroupSampler(t, r, cfg, degs, wi)
			d0 := s.HU.Lambda.At(0, 0)
			for _, v := range []float64{d0, -2, -3, -4, -5, -6, -8, -1e300, math.NaN()} {
				s.HU.Lambda.Set(0, 0, v)
				msgs := make([]string, len(degs))
				for item := range degs {
					_, msgs[item] = loneDraw(s, iter, item)
				}
				for _, sw := range sweepsOf(r, s, len(degs)) {
					want := ""
					for _, it := range sw.ord {
						if msgs[it] != "" {
							want = msgs[it]
							break
						}
					}
					got := sweepPanic(s, iter, sw.ord, sw.cuts)
					if got != want {
						t.Fatalf("K=%d window %v Λ_00 = %v %s: sweep panics with %q, the first lone draw to refuse with %q",
							k, degs, v, sw.name, got, want)
					}
					fired[got != ""]++
				}
			}
			s.HU.Lambda.Set(0, 0, d0)
		}
	}
	if fired[true] == 0 || fired[false] == 0 {
		t.Fatalf("the damage must refuse some sweeps and spare others, got %v", fired)
	}
}
