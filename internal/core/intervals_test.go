package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/sparse"
)

func TestIntervalsNilBeforeBurnin(t *testing.T) {
	p := NewPredictor([]sparse.Entry{{Row: 0, Col: 0, Val: 1}}, 0, 0)
	if p.Intervals() != nil {
		t.Fatal("intervals must be nil before any collected sample")
	}
}

func TestIntervalsCalibrated(t *testing.T) {
	// Run the sampler on planted data and check the predictive intervals
	// are meaningful: standardized residuals (actual - mean)/std should
	// be roughly standard-normal — most within 2, median |z| below ~1.2.
	ds := datagen.Generate(datagen.Small(51))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, 51)
	prob := NewProblem(train, test)
	cfg := DefaultConfig()
	cfg.K = 8
	cfg.Iters = 20
	cfg.Burnin = 8
	s, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if len(res.Intervals) != len(test) {
		t.Fatalf("got %d intervals for %d test points", len(res.Intervals), len(test))
	}
	var zs []float64
	within2 := 0
	for _, iv := range res.Intervals {
		if iv.Std <= 0 {
			t.Fatal("non-positive predictive std")
		}
		z := math.Abs(iv.Actual-iv.Mean) / iv.Std
		zs = append(zs, z)
		if z < 2 {
			within2++
		}
	}
	sort.Float64s(zs)
	median := zs[len(zs)/2]
	frac2 := float64(within2) / float64(len(zs))
	// N(0,1): median |z| ≈ 0.67, P(|z|<2) ≈ 0.954. Allow generous slack
	// for the short chain and planted-model mismatch.
	if median > 1.3 {
		t.Fatalf("median |z| = %v — intervals far too narrow", median)
	}
	if median < 0.2 {
		t.Fatalf("median |z| = %v — intervals far too wide", median)
	}
	if frac2 < 0.80 {
		t.Fatalf("only %.0f%% of residuals within 2 std", frac2*100)
	}
}

func TestIntervalMeanMatchesAvgRMSE(t *testing.T) {
	// The RMSE computed from interval means must equal the reported
	// posterior-mean RMSE (same accumulator).
	ds := datagen.Generate(datagen.Tiny(52))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, 52)
	prob := NewProblem(train, test)
	cfg := DefaultConfig()
	cfg.K = 4
	cfg.Iters = 6
	cfg.Burnin = 2
	s, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	var se float64
	for _, iv := range res.Intervals {
		d := iv.Mean - iv.Actual
		se += d * d
	}
	rmse := math.Sqrt(se / float64(len(res.Intervals)))
	if math.Abs(rmse-res.FinalRMSE()) > 1e-12 {
		t.Fatalf("interval RMSE %v != reported %v", rmse, res.FinalRMSE())
	}
}

func TestObservationNoiseInStd(t *testing.T) {
	// With Alpha set, predictive variance must include 1/Alpha even when
	// the chain is completely confident about u·v.
	p := NewPredictor([]sparse.Entry{{Row: 0, Col: 0, Val: 1}}, 0, 0)
	p.Alpha = 4
	u := la.NewMatrixFrom([][]float64{{1}})
	v := la.NewMatrixFrom([][]float64{{1}})
	for i := 0; i < 10; i++ {
		p.PartialUpdatePar(u, v, true, nil) // identical prediction every sample
	}
	iv := p.Intervals()[0]
	if math.Abs(iv.Std-0.5) > 1e-9 { // sqrt(1/4)
		t.Fatalf("std = %v, want 0.5 observation noise floor", iv.Std)
	}
}
