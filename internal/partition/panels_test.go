package partition

import (
	"math/rand"
	"testing"
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
		for _, ranks := range []int{1, 2, 3, 7, len(p.Lo), len(p.Lo) + 3} {
			bounds := AssignPanels(p, ranks)
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
	bounds := AssignPanels(p, 2)
	if bounds[1] != 40 {
		t.Fatalf("equal panels split at %d, want 40 (bounds %v)", bounds[1], bounds)
	}
}
