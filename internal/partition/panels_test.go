package partition

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sparse"
)

func randomPanels(r *rand.Rand, rows int) Panels {
	var p Panels
	lo := 0
	for lo < rows {
		hi := lo + 1 + r.Intn(rows/4+1)
		if hi > rows {
			hi = rows
		}
		p.Lo = append(p.Lo, lo)
		p.Hi = append(p.Hi, hi)
		p.NNZ = append(p.NNZ, int64(r.Intn(500)))
		lo = hi
	}
	return p
}

func TestAssignPanelsAlignsToShards(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		rows := 1 + r.Intn(200)
		p := randomPanels(r, rows)
		if err := p.Validate(rows); err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 2, 3, 7, len(p.Lo), len(p.Lo) + 3} {
			bounds := AssignPanels(p, ranks, CostModel{})
			if len(bounds) != ranks+1 || bounds[0] != 0 || bounds[ranks] != rows {
				t.Fatalf("bounds %v do not span [0, %d] for %d ranks", bounds, rows, ranks)
			}
			starts := map[int]bool{0: true, rows: true}
			for s := range p.Lo {
				starts[p.Lo[s]] = true
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1] {
					t.Fatalf("bounds not monotone: %v", bounds)
				}
				if !starts[bounds[i]] {
					t.Fatalf("boundary %d is not a panel boundary (panels %v)", bounds[i], p.Lo)
				}
			}
		}
	}
}

func TestAssignPanelsBalancesNNZ(t *testing.T) {
	// 8 equal panels over 2 ranks must split 4/4.
	p := Panels{}
	for s := 0; s < 8; s++ {
		p.Lo = append(p.Lo, s*10)
		p.Hi = append(p.Hi, (s+1)*10)
		p.NNZ = append(p.NNZ, 1000)
	}
	bounds := AssignPanels(p, 2, CostModel{})
	if bounds[1] != 40 {
		t.Fatalf("equal panels split at %d, want 40 (bounds %v)", bounds[1], bounds)
	}
}

func TestBuildWithPanels(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	coo := sparse.NewCOO(60, 40, 800)
	for k := 0; k < 800; k++ {
		coo.Add(r.Intn(60), r.Intn(40), r.NormFloat64())
	}
	a := coo.ToCSR()
	// Derive panels from a written file's actual shard table.
	path := filepath.Join(t.TempDir(), "a.bcsr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteBinarySharded(f, a, 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mp, err := sparse.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	panels := PanelsOf(mp)

	plan, err := BuildWithPanels(a, panels, Options{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := panels.Validate(a.M); err != nil {
		t.Fatal(err)
	}
	if len(plan.RowBounds) != 4 || plan.RowBounds[3] != a.M {
		t.Fatalf("row bounds %v", plan.RowBounds)
	}
	// Column bounds must equal the per-row builder's (same model, same
	// training matrix) — the column side is panel-independent.
	ref := Build(a, Options{Ranks: 3})
	for i := range ref.ColBounds {
		if plan.ColBounds[i] != ref.ColBounds[i] {
			t.Fatalf("col bounds %v != reference %v", plan.ColBounds, ref.ColBounds)
		}
	}

	if _, err := BuildWithPanels(a, panels, Options{Ranks: 2, Reorder: true}); err == nil {
		t.Fatal("reorder + panels accepted")
	}
	bad := panels
	bad.Hi = append([]int(nil), panels.Hi...)
	bad.Hi[0]++ // overlap with panel 1
	if _, err := BuildWithPanels(a, bad, Options{Ranks: 2}); err == nil {
		t.Fatal("non-contiguous panels accepted")
	}
}
