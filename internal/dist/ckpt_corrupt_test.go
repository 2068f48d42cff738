package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/sparse"
)

// ckpt_corrupt_test.go pins the manifest plane's behavior over a corpus
// of damaged files: LatestManifest (the recovery scan) must skip
// unreadable, torn, and structurally inconsistent manifests with a
// logged warning and still find the newest intact one, while
// ReadManifest (the pinned path, where the caller named an exact round)
// must fail loudly with byte-accurate errors.

// corpusTest is the held-out set of the corpus's intact round: three
// entries in rank 0's rows, two in rank 1's.
var corpusTest = []sparse.Entry{{Row: 0, Col: 1}, {Row: 25, Col: 3}, {Row: 19, Col: 29}, {Row: 20}, {Row: 7, Col: 14}}

// corpusFragment is rank r's fragment of the intact round man: its owned
// rows of U and V and its owned accumulators, every value distinct.
func corpusFragment(man Manifest, r int) *core.Checkpoint {
	owned := 0
	for _, e := range corpusTest {
		if int(e.Row) >= man.RowBounds[r] && int(e.Row) < man.RowBounds[r+1] {
			owned++
		}
	}
	c := &core.Checkpoint{
		K: man.K, NextIter: man.Iter, Seed: man.Seed,
		U:         la.NewMatrix(man.RowBounds[r+1]-man.RowBounds[r], man.K),
		V:         la.NewMatrix(man.ColBounds[r+1]-man.ColBounds[r], man.K),
		PredSum:   make([]float64, owned),
		PredSumSq: make([]float64, owned),
		NSamples:  2, SampleRMSE: []float64{1, 0.9}, AvgRMSE: []float64{1, 0.95},
	}
	x := float64(r) * 1e4
	for _, v := range [][]float64{c.U.Data, c.V.Data, c.PredSum, c.PredSumSq} {
		for i := range v {
			x++
			v[i] = x
		}
	}
	return c
}

// writeCorruptCorpus populates dir with one valid manifest (iter 4) and
// its two fragments, surrounded by damaged manifests at higher
// iterations.
func writeCorruptCorpus(t testing.TB, dir string) {
	t.Helper()
	valid := Manifest{
		Iter: 4, K: 6, Ranks: 2, Seed: 1, M: 40, N: 30,
		RowBounds: []int{0, 20, 40},
		ColBounds: []int{0, 15, 30},
		Fragments: []string{"ckpt-iter000004-rank0-of2.frag", "ckpt-iter000004-rank1-of2.frag"},
	}
	blob, err := json.Marshal(&valid)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(manifestName(4), blob)
	for r, name := range valid.Fragments {
		var frag bytes.Buffer
		if err := corpusFragment(valid, r).Write(&frag); err != nil {
			t.Fatal(err)
		}
		write(name, frag.Bytes())
	}
	// Torn mid-write by a foreign (non-atomic) writer: truncated JSON.
	write(manifestName(6), blob[:len(blob)/2])
	// Zero bytes — an empty debris file.
	write(manifestName(8), nil)
	// Parses, but the structure lies: 2 ranks with one fragment and
	// 1-rank bounds.
	inconsistent := Manifest{
		Iter: 10, K: 6, Ranks: 2, Seed: 1, M: 40, N: 30,
		RowBounds: []int{0, 40},
		ColBounds: []int{0, 30},
		Fragments: []string{"ckpt-iter000010-rank0-of2.frag"},
	}
	blob10, err := json.Marshal(&inconsistent)
	if err != nil {
		t.Fatal(err)
	}
	write(manifestName(10), blob10)
}

func TestLatestManifestSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	writeCorruptCorpus(t, dir)

	var logs bytes.Buffer
	prevOut, prevFlags := log.Writer(), log.Flags()
	log.SetOutput(&logs)
	log.SetFlags(0)
	defer func() {
		log.SetOutput(prevOut)
		log.SetFlags(prevFlags)
	}()

	man, err := LatestManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Iter != 4 {
		t.Fatalf("latest manifest %+v, want the intact iter-4 one", man)
	}
	warned := logs.String()
	for _, name := range []string{manifestName(6), manifestName(8), manifestName(10)} {
		if !strings.Contains(warned, name) {
			t.Fatalf("no skip warning for %s in:\n%s", name, warned)
		}
	}
	if !strings.Contains(warned, "torn manifest "+manifestName(6)) {
		t.Fatalf("torn manifest not reported as torn:\n%s", warned)
	}
	if !strings.Contains(warned, "is inconsistent (2 ranks, 2/2 bounds, 1 fragments)") {
		t.Fatalf("inconsistent manifest not reported structurally:\n%s", warned)
	}
}

// TestReadManifestFailsLoudlyOnCorpus pins the pinned-manifest contract
// byte for byte: a named round that is damaged is an error, never
// something to skip past.
func TestReadManifestFailsLoudlyOnCorpus(t *testing.T) {
	dir := t.TempDir()
	writeCorruptCorpus(t, dir)

	if man, err := ReadManifest(dir, 4); err != nil || man.Iter != 4 {
		t.Fatalf("intact manifest: got (%+v, %v)", man, err)
	}
	if _, err := ReadManifest(dir, 6); err == nil ||
		err.Error() != "dist: torn manifest manifest-iter000006.json: unexpected end of JSON input" {
		t.Fatalf("torn manifest error = %v", err)
	}
	if _, err := ReadManifest(dir, 8); err == nil ||
		err.Error() != "dist: torn manifest manifest-iter000008.json: unexpected end of JSON input" {
		t.Fatalf("empty manifest error = %v", err)
	}
	if _, err := ReadManifest(dir, 10); err == nil ||
		err.Error() != "dist: manifest for iter 10 is inconsistent (2 ranks, 2/2 bounds, 1 fragments)" {
		t.Fatalf("inconsistent manifest error = %v", err)
	}
	if _, err := ReadManifest(dir, 12); !os.IsNotExist(err) {
		t.Fatalf("missing manifest error = %v, want os.IsNotExist", err)
	}
}

// TestResumeRefusesManifestOfAnotherShape: a checkpoint directory reused
// after a run on a smaller or a larger matrix holds intact rounds that
// LatestManifest picks up. Resuming from one is an error naming the
// manifest and both shapes — reached before the stale bounds index this
// run's test entries (the smaller case died in LoadDistCheckpoint with
// "index out of range [40] with length 40") or size its factors.
func TestResumeRefusesManifestOfAnotherShape(t *testing.T) {
	split := func(spec datagen.Spec) *core.Problem {
		train, test := sparse.SplitTrainTest(datagen.Generate(spec).R, 0.2, 3)
		return core.NewProblem(train, test)
	}
	tiny, small := split(datagen.Tiny(3)), split(datagen.Small(3))
	cfg := testConfig()
	cfg.Iters = 4
	for _, tc := range []struct {
		name          string
		wrote, resume *core.Problem
	}{
		{"stale smaller manifest", tiny, small},
		{"stale larger manifest", small, tiny},
	} {
		opt := Options{Ranks: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 2}
		if _, _, _, err := RunRounds(cfg, sourceOf(t, tc.wrote), nil, opt, nil); err != nil {
			t.Fatalf("%s: writing the rounds: %v", tc.name, err)
		}
		man, err := LatestManifest(opt.CheckpointDir)
		if err != nil || man == nil {
			t.Fatalf("%s: latest manifest (%+v, %v)", tc.name, man, err)
		}
		_, _, _, err = RunRounds(cfg, sourceOf(t, tc.resume), man, opt, nil)
		if err == nil {
			t.Fatalf("%s: resumed a %dx%d run from a %dx%d round", tc.name, tc.resume.R.M, tc.resume.R.N, man.M, man.N)
		}
		for _, want := range []string{
			manifestName(man.Iter), opt.CheckpointDir,
			fmt.Sprintf("sealed over a %dx%d matrix", tc.wrote.R.M, tc.wrote.R.N),
			fmt.Sprintf("this run's is %dx%d", tc.resume.R.M, tc.resume.R.N),
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
	}
}

// TestResumeRefusesManifestOfAnotherK: a sealed round whose K is not the
// run's — non-positive, absurd, or merely another run's — is an error
// naming the values, reached before K sizes a matrix (K = -1 killed the
// process with "la: negative matrix dimension" from a rank goroutine,
// and K = 1<<40 overflowed make).
func TestResumeRefusesManifestOfAnotherK(t *testing.T) {
	train, test := sparse.SplitTrainTest(datagen.Generate(datagen.Tiny(3)).R, 0.2, 3)
	prob := core.NewProblem(train, test)
	cfg := testConfig()
	cfg.Iters = 4
	opt := Options{Ranks: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 2}
	if _, _, _, err := RunRounds(cfg, sourceOf(t, prob), nil, opt, nil); err != nil {
		t.Fatalf("writing the rounds: %v", err)
	}
	sealed, err := LatestManifest(opt.CheckpointDir)
	if err != nil || sealed == nil {
		t.Fatalf("latest manifest (%+v, %v)", sealed, err)
	}
	for _, tc := range []struct {
		k    int
		want []string
	}{
		{-1, []string{"K=-1, want K >= 1"}},
		{1 << 40, []string{manifestName(sealed.Iter), opt.CheckpointDir, fmt.Sprintf("sealed with K=%d, this run's is K=%d", 1<<40, cfg.K)}},
		{cfg.K + 1, []string{manifestName(sealed.Iter), opt.CheckpointDir, fmt.Sprintf("sealed with K=%d, this run's is K=%d", cfg.K+1, cfg.K)}},
	} {
		man := *sealed
		man.K = tc.k
		_, _, _, err := RunRounds(cfg, sourceOf(t, prob), &man, opt, nil)
		if err == nil {
			t.Fatalf("K=%d: resumed a K=%d run", tc.k, cfg.K)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("K=%d: error %q does not name %q", tc.k, err, want)
			}
		}
	}
}

// FuzzManifest: whatever bytes sit under a manifest's name, ReadManifest
// returns an error or a manifest a resume can slice by — one fragment
// per rank, row and column bounds that start at 0, never step back and
// end at the matrix size, and K >= 1. Seeded with the corpus above plus
// bounds that parse and count correctly but do not cover the matrix, and
// a K that cannot size one.
func FuzzManifest(f *testing.F) {
	dir := f.TempDir()
	writeCorruptCorpus(f, dir)
	for _, iter := range []int{4, 6, 8, 10} {
		blob, err := os.ReadFile(filepath.Join(dir, manifestName(iter)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"Ranks":2,"M":40,"N":30,"RowBounds":[0,50,40],"ColBounds":[0,15,30],"Fragments":["a","b"]}`))
	f.Add([]byte(`{"Ranks":2,"M":40,"N":30,"RowBounds":[0,20,40],"ColBounds":[5,15,30],"Fragments":["a","b"]}`))
	f.Add([]byte(`{"Ranks":2,"M":40,"N":30,"RowBounds":[0,20,40],"ColBounds":[0,15,31],"Fragments":["a","b"]}`))
	f.Add([]byte(`{"Ranks":1,"M":40,"N":30,"RowBounds":[0,-1],"ColBounds":[0,30],"Fragments":["a"]}`))
	f.Add([]byte(`{"Ranks":-1}`))
	f.Add([]byte(`{"Ranks":0,"RowBounds":[0],"ColBounds":[0]}`))
	f.Add([]byte(`{"Iter":4,"K":-1,"Ranks":1,"M":40,"N":30,"RowBounds":[0,40],"ColBounds":[0,30],"Fragments":["a"]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName(7)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir, 7)
		if err != nil {
			return
		}
		if len(m.Fragments) != m.Ranks {
			t.Fatalf("accepted %d fragments for %d ranks", len(m.Fragments), m.Ranks)
		}
		if m.K < 1 {
			t.Fatalf("accepted K=%d", m.K)
		}
		for _, side := range []struct {
			bounds []int
			size   int
		}{{m.RowBounds, m.M}, {m.ColBounds, m.N}} {
			b := side.bounds
			if len(b) != m.Ranks+1 || b[0] != 0 || b[len(b)-1] != side.size {
				t.Fatalf("accepted bounds %v for %d ranks over [0, %d)", b, m.Ranks, side.size)
			}
			for r := 1; r < len(b); r++ {
				if b[r] < b[r-1] {
					t.Fatalf("accepted bounds %v that step back at rank %d", b, r-1)
				}
			}
		}
	})
}

// FuzzDistFragment: whatever bytes sit under one fragment's name of the
// corpus's intact 2-rank round, LoadDistCheckpoint returns an error or a
// checkpoint a resume can take — U M x K, V N x K, one accumulator pair
// per test entry — holding that fragment's rows at the manifest's
// bounds. It never panics. Seeded with the corpus's two fragments under
// either rank's name, and each cut in half.
func FuzzDistFragment(f *testing.F) {
	dir := f.TempDir()
	writeCorruptCorpus(f, dir)
	man, err := ReadManifest(dir, 4)
	if err != nil {
		f.Fatal(err)
	}
	frags := make([][]byte, man.Ranks)
	for r, name := range man.Fragments {
		if frags[r], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			f.Fatal(err)
		}
	}
	for r := range frags {
		for _, blob := range frags {
			f.Add(uint8(r), blob)
		}
		f.Add(uint8(r), frags[r][:len(frags[r])/2])
	}

	f.Fuzz(func(t *testing.T, rank uint8, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		r := int(rank) % man.Ranks
		dir := t.TempDir()
		for i, name := range man.Fragments {
			blob := frags[i]
			if i == r {
				blob = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := LoadDistCheckpoint(dir, man, man.M, man.N, man.K, corpusTest)
		if err != nil {
			return
		}
		if c.U.Rows != man.M || c.U.Cols != man.K || len(c.U.Data) != man.M*man.K ||
			c.V.Rows != man.N || c.V.Cols != man.K || len(c.V.Data) != man.N*man.K {
			t.Fatalf("loaded U %dx%d (%d values), V %dx%d (%d values) for a %dx%d round at K=%d",
				c.U.Rows, c.U.Cols, len(c.U.Data), c.V.Rows, c.V.Cols, len(c.V.Data), man.M, man.N, man.K)
		}
		if len(c.PredSum) != len(corpusTest) || len(c.PredSumSq) != len(corpusTest) {
			t.Fatalf("loaded %d/%d accumulators for %d test entries", len(c.PredSum), len(c.PredSumSq), len(corpusTest))
		}
		frag, err := core.ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("loaded a round whose rank-%d fragment does not decode: %v", r, err)
		}
		for _, side := range []struct {
			name      string
			got, want []float64
		}{
			{"U", c.U.Data[man.RowBounds[r]*man.K : man.RowBounds[r+1]*man.K], frag.U.Data},
			{"V", c.V.Data[man.ColBounds[r]*man.K : man.ColBounds[r+1]*man.K], frag.V.Data},
		} {
			if len(side.got) != len(side.want) {
				t.Fatalf("rank %d's %s bounds hold %d values, its fragment %d", r, side.name, len(side.got), len(side.want))
			}
			for i := range side.want {
				if math.Float64bits(side.got[i]) != math.Float64bits(side.want[i]) {
					t.Fatalf("rank %d's %s value %d is %v, its fragment's %v", r, side.name, i, side.got[i], side.want[i])
				}
			}
		}
	})
}
