package order

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/sparse"
)

func testMatrix(seed uint64) *sparse.CSR {
	return datagen.Generate(datagen.Small(seed)).R
}

// isPermutation reports whether ord is a permutation of [0, n).
func isPermutation(ord []int32, n int) bool {
	if len(ord) != n {
		return false
	}
	seen := make([]bool, n)
	for _, it := range ord {
		if it < 0 || int(it) >= n || seen[it] {
			return false
		}
		seen[it] = true
	}
	return true
}

func TestBuildYieldsPermutations(t *testing.T) {
	r := testMatrix(3)
	for _, thr := range []int{0, 1, 8, 50, 1 << 30} {
		s := Build(r, Options{HeavyThreshold: thr})
		if !isPermutation(s.U, r.M) {
			t.Fatalf("threshold=%d: U order is not a permutation of [0,%d)", thr, r.M)
		}
		if !isPermutation(s.V, r.N) {
			t.Fatalf("threshold=%d: V order is not a permutation of [0,%d)", thr, r.N)
		}
	}
}

func TestHeavyBinLeadsInDescendingDegree(t *testing.T) {
	r := testMatrix(5)
	const thr = 30
	s := Build(r, Options{HeavyThreshold: thr})
	colDeg := make([]int, r.N)
	for _, c := range r.Col {
		colDeg[c]++
	}
	nHeavy := 0
	for _, d := range colDeg {
		if d >= thr {
			nHeavy++
		}
	}
	if nHeavy == 0 {
		t.Fatal("spec does not produce heavy items at this threshold; pick a lower one")
	}
	for pos, it := range s.V {
		d := colDeg[it]
		switch {
		case pos < nHeavy:
			if d < thr {
				t.Fatalf("position %d holds light item %d (deg %d) inside the heavy bin", pos, it, d)
			}
			if pos > 0 && colDeg[s.V[pos-1]] < d {
				t.Fatalf("heavy bin not in descending degree at position %d", pos)
			}
		default:
			if d >= thr {
				t.Fatalf("heavy item %d (deg %d) found at position %d after the heavy bin", it, d, pos)
			}
		}
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	r := testMatrix(7)
	a := Build(r, Options{HeavyThreshold: 20})
	b := Build(r, Options{HeavyThreshold: 20})
	for i := range a.U {
		if a.U[i] != b.U[i] {
			t.Fatal("U schedules differ between identical builds")
		}
	}
	for i := range a.V {
		if a.V[i] != b.V[i] {
			t.Fatal("V schedules differ between identical builds")
		}
	}
}
