package config

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sparse"
)

// TestDataResolvesEverySourceAlike pins the one data → problem resolver
// every command goes through: whatever the source — a synthetic
// benchmark, a MatrixMarket file, a sharded .bcsr — the matrix is the
// same, the split is sparse.SplitTrainTest of it (and absent at
// fraction 0), and the problem carries its transpose.
func TestDataResolvesEverySourceAlike(t *testing.T) {
	const seed = 5
	want := datagen.Generate(datagen.Tiny(seed)).R
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
	mtx := write("r.mtx", func(f *os.File) error { return sparse.WriteMatrixMarket(f, want) })
	bcsr := write("r.bcsr", func(f *os.File) error { return sparse.WriteBinarySharded(f, want, 50) })

	sources := []struct {
		name string
		d    Data
	}{
		{"synthetic", Data{Synthetic: "tiny", Scale: 1}},
		{"mtx", Data{Path: mtx, Scale: 1}},
		{"bcsr", Data{Path: bcsr, Scale: 1}},
	}
	for _, src := range sources {
		for _, frac := range []float64{0, 0.2} {
			d := src.d
			d.TestFrac = frac
			full, err := d.Matrix(seed)
			if err != nil {
				t.Fatalf("%s: %v", src.name, err)
			}
			if !sparse.Equal(full, want) {
				t.Fatalf("%s: resolved matrix differs from the generated one", src.name)
			}
			train, test, err := d.Split(seed)
			if err != nil {
				t.Fatalf("%s: %v", src.name, err)
			}
			wantTrain, wantTest := full, []sparse.Entry(nil)
			if frac > 0 {
				wantTrain, wantTest = sparse.SplitTrainTest(full, frac, seed)
				if len(wantTest) == 0 {
					t.Fatal("reference split held nothing out")
				}
			} else if test != nil {
				t.Fatalf("%s: test fraction 0 produced a test set", src.name)
			}
			if !sparse.Equal(train, wantTrain) {
				t.Fatalf("%s frac=%g: train matrix differs from SplitTrainTest's", src.name, frac)
			}
			if len(test) != len(wantTest) {
				t.Fatalf("%s frac=%g: %d test entries, want %d", src.name, frac, len(test), len(wantTest))
			}
			for i := range test {
				if test[i] != wantTest[i] {
					t.Fatalf("%s frac=%g: test entry %d differs", src.name, frac, i)
				}
			}

			prob, err := d.Problem(seed)
			if err != nil {
				t.Fatalf("%s: %v", src.name, err)
			}
			if !sparse.Equal(prob.R, train) || !sparse.Equal(prob.Rt, train.Transpose()) || len(prob.Test) != len(test) {
				t.Fatalf("%s frac=%g: Problem is not Split plus the transpose", src.name, frac)
			}
		}
	}
}

// TestDataMatrixScale pins the -scale contract at the resolver: != 1 is
// applied in both directions, <= 0 fails loudly.
func TestDataMatrixScale(t *testing.T) {
	at := func(scale float64) (*sparse.CSR, error) {
		return Data{Synthetic: "small", Scale: scale}.Matrix(7)
	}
	base, err := at(1)
	if err != nil {
		t.Fatal(err)
	}
	if up, err := at(2); err != nil || up.M <= base.M || up.N <= base.N {
		t.Fatalf("scale 2 did not upscale (err=%v)", err)
	}
	if down, err := at(0.5); err != nil || down.M >= base.M {
		t.Fatalf("scale 0.5 did not downscale (err=%v)", err)
	}
	for _, s := range []float64{0, -1} {
		if _, err := at(s); err == nil {
			t.Fatalf("scale %g accepted", s)
		}
	}
}

// TestSamplerCore: the chain knobs land on core.Config and the result
// validates.
func TestSamplerCore(t *testing.T) {
	cc := Sampler{K: 7, Alpha: 1.5, Iters: 9, Burnin: 4, Seed: 99}.Core()
	if cc.K != 7 || cc.Alpha != 1.5 || cc.Iters != 9 || cc.Burnin != 4 || cc.Seed != 99 {
		t.Fatalf("mapped %+v", cc)
	}
	if err := cc.Validate(); err != nil {
		t.Fatal(err)
	}
}
