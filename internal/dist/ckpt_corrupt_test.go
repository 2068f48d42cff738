package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sparse"
)

// ckpt_corrupt_test.go pins the manifest plane's behavior over a corpus
// of damaged files: LatestManifest (the recovery scan) must skip
// unreadable, torn, and structurally inconsistent manifests with a
// logged warning and still find the newest intact one, while
// ReadManifest (the pinned path, where the caller named an exact round)
// must fail loudly with byte-accurate errors.

// writeCorruptCorpus populates dir with one valid manifest (iter 4)
// surrounded by damaged ones at higher iterations.
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
		if _, _, _, err := RunRounds(cfg, Source{Prob: tc.wrote}, nil, opt, nil); err != nil {
			t.Fatalf("%s: writing the rounds: %v", tc.name, err)
		}
		man, err := LatestManifest(opt.CheckpointDir)
		if err != nil || man == nil {
			t.Fatalf("%s: latest manifest (%+v, %v)", tc.name, man, err)
		}
		_, _, _, err = RunRounds(cfg, Source{Prob: tc.resume}, man, opt, nil)
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

// FuzzManifest: whatever bytes sit under a manifest's name, ReadManifest
// returns an error or a manifest a resume can slice by — one fragment
// per rank, and row and column bounds that start at 0, never step back
// and end at the matrix size. Seeded with the corpus above plus bounds
// that parse and count correctly but do not cover the matrix.
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
