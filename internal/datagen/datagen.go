// Package datagen synthesizes rating matrices with the shape and skew of
// the paper's two benchmarks — the ChEMBL-20 IC50 subset (483 500
// compounds x 5 775 targets, ~1.02 M measurements) and MovieLens ml-20m
// (138 493 users x 27 278 movies, 20 M ratings) — which are not shipped
// with this offline reproduction.
//
// Ratings are planted: R = U*·V*ᵀ + noise with low-rank ground-truth
// factors, so recovery is measurable (RMSE should approach the noise
// floor). Item popularity follows a Zipf law, giving the heavy-tailed
// per-item rating counts that drive the load-imbalance phenomena of
// Figures 2–3 (a few items with 10⁴–10⁵ ratings, most with a handful).
package datagen

import (
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// Spec describes a synthetic dataset.
type Spec struct {
	Name     string
	Rows     int     // users / compounds
	Cols     int     // movies / targets
	NNZ      int     // total observed ratings
	TrueRank int     // rank of the planted factors
	NoiseSD  float64 // observation noise standard deviation
	ZipfS    float64 // popularity exponent for columns (and rows)
	MinVal   float64 // ratings clipped to [MinVal, MaxVal]; 0,0 = no clip
	MaxVal   float64
	Seed     uint64
}

// ChEMBL returns the spec matching the paper's ChEMBL-20 IC50 subset.
func ChEMBL(seed uint64) Spec {
	return Spec{
		Name: "chembl", Rows: 483500, Cols: 5775, NNZ: 1023952,
		TrueRank: 16, NoiseSD: 0.6, ZipfS: 1.05, Seed: seed,
	}
}

// ML20M returns the spec matching MovieLens ml-20m.
func ML20M(seed uint64) Spec {
	return Spec{
		Name: "ml-20m", Rows: 138493, Cols: 27278, NNZ: 20000263,
		TrueRank: 16, NoiseSD: 0.5, ZipfS: 1.1,
		MinVal: 0.5, MaxVal: 5, Seed: seed,
	}
}

// Scaled returns a copy of s with every dimension and the nnz scaled by
// f (any f > 0: below 1 shrinks toward CI-sized runs, above 1 grows the
// benchmark past its reference shape), keeping the shape and skew.
func Scaled(s Spec, f float64) Spec {
	s.Rows = maxInt(8, int(float64(s.Rows)*f))
	s.Cols = maxInt(8, int(float64(s.Cols)*f))
	s.NNZ = maxInt(64, int(float64(s.NNZ)*f))
	s.Name = s.Name + "-scaled"
	return s
}

// Small returns a quick laptop-scale spec for examples and tests.
func Small(seed uint64) Spec {
	return Spec{
		Name: "small", Rows: 600, Cols: 180, NNZ: 12000,
		TrueRank: 8, NoiseSD: 0.4, ZipfS: 1.0, Seed: seed,
	}
}

// Tiny returns a minimal spec for unit tests.
func Tiny(seed uint64) Spec {
	return Spec{
		Name: "tiny", Rows: 40, Cols: 25, NNZ: 300,
		TrueRank: 4, NoiseSD: 0.3, ZipfS: 0.9, Seed: seed,
	}
}

// Dataset is a generated rating matrix with its planted ground truth.
type Dataset struct {
	Spec  Spec
	R     *sparse.CSR // users x movies rating matrix
	UTrue [][]float64 // planted user factors (Rows x TrueRank), row-major views
	VTrue [][]float64 // planted movie factors
}

// Generate synthesizes the dataset described by s. Generation is fully
// deterministic in s.Seed.
func Generate(s Spec) *Dataset {
	r := rng.NewKeyed(s.Seed, 0xda7a6e4)
	// Scale so the planted score has SD ≈ 1.5/√K·√K… i.e. comfortably
	// above the observation noise (signal SD ≈ 0.8 at rank 8), so the
	// factorization is recoverable and RMSE curves have room to fall.
	scale := 1.5 / math.Sqrt(float64(s.TrueRank))
	ut := planted(r, s.Rows, s.TrueRank, scale)
	vt := planted(r, s.Cols, s.TrueRank, scale)

	// Zipf popularity over columns: weight_j ∝ (j+1)^{-s} after a random
	// relabelling so popular columns are spread across the index space
	// (the partitioner's reordering has to find them, as with real data).
	colCum := zipfCumulative(s.Cols, s.ZipfS)
	colLabel := randPerm(r, s.Cols)
	rowCum := zipfCumulative(s.Rows, s.ZipfS*0.8) // milder skew on users
	rowLabel := randPerm(r, s.Rows)

	// A Zipf-popular cell saturates quickly on dense matrices; cap the
	// target density and bail out of the rejection loop rather than spin
	// (heavily scaled-down specs can otherwise request more entries than
	// the matrix has cells).
	target := s.NNZ
	if cells := int64(s.Rows) * int64(s.Cols); int64(target) > cells*15/100 {
		target = int(cells * 15 / 100)
		if target < 1 {
			target = 1
		}
	}
	coo := sparse.NewCOO(s.Rows, s.Cols, target)
	seen := make(map[int64]struct{}, target*2)
	maxAttempts := 40 * int64(target)
	for attempts := int64(0); len(coo.Entries) < target && attempts < maxAttempts; attempts++ {
		i := rowLabel[sampleCum(r, rowCum)]
		j := colLabel[sampleCum(r, colCum)]
		key := int64(i)*int64(s.Cols) + int64(j)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		v := dot(ut[i], vt[j]) + float64(s.NoiseSD*r.Norm())
		if s.MaxVal > s.MinVal {
			// Map the (approximately standard normal) planted score into
			// the rating range, then clip — mimics 0.5..5 star ratings.
			v = float64((s.MaxVal+s.MinVal)/2) + float64(v*(s.MaxVal-s.MinVal)/4)
			v = math.Min(s.MaxVal, math.Max(s.MinVal, v))
		}
		coo.Add(i, j, v)
	}
	return &Dataset{Spec: s, R: coo.ToCSR(), UTrue: ut, VTrue: vt}
}

func planted(r *rng.Stream, n, k int, scale float64) [][]float64 {
	buf := make([]float64, n*k)
	r.FillNorm(buf)
	for i := range buf {
		buf[i] *= scale
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = buf[i*k : (i+1)*k]
	}
	return rows
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// zipfCumulative returns the cumulative distribution over n indices with
// probability ∝ (rank+1)^{-s}.
func zipfCumulative(n int, s float64) []float64 {
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1
	return cum
}

// sampleCum draws an index from the cumulative distribution by binary
// search.
func sampleCum(r *rng.Stream, cum []float64) int {
	u := r.Float64()
	return sort.SearchFloat64s(cum, u)
}

func randPerm(r *rng.Stream, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
