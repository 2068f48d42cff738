package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sparse"
)

// TestLoadDataScale pins the -scale contract (the silent-ignore bug
// where only downscales were applied): != 1 is applied in both
// directions, <= 0 fails loudly.
func TestLoadDataScale(t *testing.T) {
	small := func(scale float64) config.Data {
		return config.Data{Synthetic: "small", Scale: scale, TestFrac: 0.2}
	}
	base, err := loadData(small(1), 7)
	if err != nil {
		t.Fatal(err)
	}
	up, err := loadData(small(2), 7)
	if err != nil {
		t.Fatal(err)
	}
	if up.NumUsers() <= base.NumUsers() || up.NumItems() <= base.NumItems() {
		t.Fatalf("-scale 2 did not upscale: %dx%d vs %dx%d",
			up.NumUsers(), up.NumItems(), base.NumUsers(), base.NumItems())
	}
	down, err := loadData(small(0.5), 7)
	if err != nil {
		t.Fatal(err)
	}
	if down.NumUsers() >= base.NumUsers() {
		t.Fatalf("-scale 0.5 did not downscale: %d vs %d", down.NumUsers(), base.NumUsers())
	}
	for _, s := range []float64{0, -0.5} {
		if _, err := loadData(small(s), 7); err == nil {
			t.Fatalf("-scale %g accepted", s)
		}
	}
}

// TestLoadDataSplitIsTheResolvers pins the contract bpmf-trainer and
// bpmf-serve depend on: for the same (source, fraction, seed) this
// command — which trains through the public API, and for a synthetic
// source through a ratings round trip — holds out exactly the split
// config.Data resolves for them. The public Data hides its matrices, so
// beyond the counts the check is the chain itself: a sampler over the
// resolver's problem must reproduce the public run's RMSE trace bit for
// bit, which one moved rating would break.
func TestLoadDataSplitIsTheResolvers(t *testing.T) {
	const seed = 11
	synth := config.Data{Synthetic: "tiny", Scale: 1, TestFrac: 0.2}
	full, err := synth.Matrix(seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, w func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mtx := write("r.mtx", func(f *os.File) error { return sparse.WriteMatrixMarket(f, full) })
	bcsr := write("r.bcsr", func(f *os.File) error { return sparse.WriteBinarySharded(f, full, 50) })

	sm := config.Sampler{K: 4, Alpha: 2, Iters: 3, Burnin: 1, Seed: seed}
	for name, d := range map[string]config.Data{
		"synthetic": synth,
		"mtx":       {Path: mtx, Scale: 1, TestFrac: 0.2},
		"bcsr":      {Path: bcsr, Scale: 1, TestFrac: 0.2},
	} {
		data, err := loadData(d, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prob, err := d.Problem(seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if data.NumTrain() != prob.R.NNZ() || data.NumTest() != len(prob.Test) || len(prob.Test) == 0 {
			t.Fatalf("%s: command holds out %d/%d train/test, resolver %d/%d",
				name, data.NumTrain(), data.NumTest(), prob.R.NNZ(), len(prob.Test))
		}
		res, err := bpmf.Train(data, bpmf.Config{K: sm.K, Alpha: sm.Alpha, Iters: sm.Iters, Burnin: sm.Burnin, Seed: sm.Seed, Engine: bpmf.Sequential})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := core.NewSampler(sm.Core(), prob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := s.Run().AvgRMSE
		for i, got := range res.RMSETrace() {
			if got != want[i] {
				t.Fatalf("%s iter %d: RMSE %v over the command's split, %v over the resolver's", name, i, got, want[i])
			}
		}
	}
}

// TestParseEngineWalksTheEnum: every engine the public API names parses
// back to itself, under the name the config layer calls canonical.
func TestParseEngineWalksTheEnum(t *testing.T) {
	n := 0
	for e := bpmf.Engine(0); e.String() != "unknown"; e++ {
		n++
		if got, err := parseEngine(e.String()); err != nil || got != e {
			t.Errorf("parseEngine(%q) = %v, %v", e.String(), got, err)
		}
		if config.CanonicalEngine(e.String()) != e.String() {
			t.Errorf("config does not know engine %q", e.String())
		}
	}
	if n != 5 {
		t.Errorf("walked %d engines, want 5", n)
	}
	if got, err := parseEngine("MPI"); err != nil || got != bpmf.Distributed {
		t.Errorf("alias MPI = %v, %v", got, err)
	}
	if _, err := parseEngine("cuda"); err == nil {
		t.Error("unknown engine accepted")
	}
}
