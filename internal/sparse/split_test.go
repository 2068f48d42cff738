package sparse

import (
	"math/rand"
	"testing"
)

// TestSplitRowsResumeMatchesGlobalSplit is the property the shard-native
// distributed loader rests on: splitting a matrix panel-by-panel with
// carried state reproduces SplitTrainTest's global decisions exactly,
// for any panel decomposition.
func TestSplitRowsResumeMatchesGlobalSplit(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 12; trial++ {
		a := randomCSR(r, 40+r.Intn(30), 400)
		seed := uint64(r.Int63())
		frac := 0.1 + 0.4*r.Float64()
		wantTrain, wantTest := SplitTrainTest(a, frac, seed)

		// Random contiguous panel decomposition, plus one deliberately
		// empty panel (a rank that owns no rows must pass the state
		// through unchanged).
		cuts := []int{0}
		for cuts[len(cuts)-1] < a.M {
			next := cuts[len(cuts)-1] + 1 + r.Intn(a.M/3+1)
			if next > a.M {
				next = a.M
			}
			cuts = append(cuts, next)
		}
		dup := 1 + r.Intn(len(cuts)-1)
		cuts = append(cuts[:dup], append([]int{cuts[dup]}, cuts[dup:]...)...)

		st := NewSplitState(a.N)
		var gotTest []Entry
		train := NewCOO(a.M, a.N, a.NNZ())
		for p := 0; p+1 < len(cuts); p++ {
			// Round-trip the state through its wire encoding each panel,
			// as the rank pipeline does, and resume from a fresh stream.
			enc := st.Encode()
			dec, err := DecodeSplitState(enc, a.N)
			if err != nil {
				t.Fatal(err)
			}
			SplitRowsResume(a, cuts[p], cuts[p+1], frac, seed, dec,
				func(e Entry) { train.Add(int(e.Row), int(e.Col), e.Val) },
				func(e Entry) { gotTest = append(gotTest, e) })
			st = dec
		}
		gotTrain := train.ToCSR()

		if !Equal(wantTrain, gotTrain) {
			t.Fatalf("trial %d: resumed train matrix differs (panels %v)", trial, cuts)
		}
		if len(gotTest) != len(wantTest) {
			t.Fatalf("trial %d: %d test entries, want %d", trial, len(gotTest), len(wantTest))
		}
		for i := range gotTest {
			if gotTest[i] != wantTest[i] {
				t.Fatalf("trial %d: test entry %d = %+v, want %+v", trial, i, gotTest[i], wantTest[i])
			}
		}
	}
}

func TestDecodeSplitStateRejectsWrongLength(t *testing.T) {
	if _, err := DecodeSplitState(make([]byte, 12), 10); err == nil {
		t.Fatal("wrong-length state accepted")
	}
	st := NewSplitState(6)
	st.Started = true
	st.RNG = [4]uint64{1, 1 << 60, 42, ^uint64(0)}
	st.ColSeen[2] = true
	back, err := DecodeSplitState(st.Encode(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Started || back.RNG != st.RNG || !back.ColSeen[2] || back.ColSeen[3] {
		t.Fatalf("state round trip broken: %+v vs %+v", back, st)
	}
}

// splitViaCOO is the split as it was first built — training entries
// collected in a COO and converted (a counting pass plus a sort of every
// row) — kept as the reference for SplitTrainTest's in-place CSR.
func splitViaCOO(a *CSR, testFrac float64, seed uint64) (*CSR, []Entry) {
	train := NewCOO(a.M, a.N, a.NNZ())
	var test []Entry
	SplitRowsResume(a, 0, a.M, testFrac, seed, NewSplitState(a.N),
		func(e Entry) { train.Add(int(e.Row), int(e.Col), e.Val) },
		func(e Entry) { test = append(test, e) })
	return train.ToCSR(), test
}

// TestSplitTrainTestMatchesCOOConstruction: appending training entries
// straight into RowPtr/Col/Val yields the matrix and test slice of the
// COO round trip, on matrices with empty rows and single-entry columns,
// from an almost-empty to an almost-full test set.
func TestSplitTrainTestMatchesCOOConstruction(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m, n := 30+r.Intn(40), 20+r.Intn(40)
		c := NewCOO(m, n, 0)
		for i := 0; i < m; i++ {
			if i%5 == 3 {
				continue // an empty row
			}
			for k := r.Intn(12); k >= 0; k-- {
				c.Add(i, r.Intn(n-1), r.NormFloat64())
			}
		}
		c.Add(r.Intn(m), n-1, 2.5) // a column with exactly one entry
		a := c.ToCSR()
		for _, frac := range []float64{0.01, 0.2, 0.9} {
			seed := uint64(r.Int63())
			gotTrain, gotTest := SplitTrainTest(a, frac, seed)
			wantTrain, wantTest := splitViaCOO(a, frac, seed)
			if !Equal(gotTrain, wantTrain) {
				t.Fatalf("trial %d frac %g: train matrix differs from the COO construction", trial, frac)
			}
			if len(gotTest) != len(wantTest) {
				t.Fatalf("trial %d frac %g: %d test entries, want %d", trial, frac, len(gotTest), len(wantTest))
			}
			for i := range gotTest {
				if gotTest[i] != wantTest[i] {
					t.Fatalf("trial %d frac %g: test entry %d = %+v, want %+v", trial, frac, i, gotTest[i], wantTest[i])
				}
			}
		}
	}
}

// TestSplitTrainTestZeroFraction: at a fraction of 0 or below the split is
// the identity — the matrix itself, no pass over it, and no test set —
// and just above 0 it is a real split pass over a.
func TestSplitTrainTestZeroFraction(t *testing.T) {
	c := NewCOO(3, 3, 0)
	c.Add(0, 0, 1)
	c.Add(1, 2, 2)
	c.Add(2, 1, 3)
	a := c.ToCSR()
	for _, frac := range []float64{0, -0.5} {
		if train, test := SplitTrainTest(a, frac, 9); train != a || test != nil {
			t.Fatalf("fraction %g must return the matrix itself and no test set", frac)
		}
	}
	if train, _ := SplitTrainTest(a, 1e-9, 9); train == a || !Equal(train, a) {
		t.Fatal("a positive fraction must build a fresh training matrix")
	}
}
