package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
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
			panel, test := SplitRowsResume(a, cuts[p], cuts[p+1], frac, seed, dec)
			for i := 0; i < a.M; i++ {
				cols, vals := panel.Row(i)
				if len(cols) > 0 && (i < cuts[p] || i >= cuts[p+1]) {
					t.Fatalf("trial %d: panel [%d, %d) holds entries in row %d", trial, cuts[p], cuts[p+1], i)
				}
				for k, c := range cols {
					train.Add(i, int(c), vals[k])
				}
			}
			gotTest = append(gotTest, test...)
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

// splitViaCOO is the split as it was first built — the rule run entry by
// entry through train/test callbacks, training entries collected in a COO
// and converted (a counting pass plus a sort of every row) — kept as the
// reference for splitter's one pass.
func splitViaCOO(a *CSR, testFrac float64, seed uint64) (*CSR, []Entry) {
	train := NewCOO(a.M, a.N, a.NNZ())
	var test []Entry
	r := rng.NewKeyed(seed, splitKey)
	colSeen := make([]bool, a.N)
	for i := 0; i < a.M; i++ {
		cols, vals := a.Row(i)
		rowSeen := false
		for k, c := range cols {
			e := Entry{Row: int32(i), Col: c, Val: vals[k]}
			mustTrain := !rowSeen || !colSeen[c]
			if !mustTrain && r.Float64() < testFrac {
				test = append(test, e)
				continue
			}
			rowSeen = true
			colSeen[c] = true
			train.Add(int(e.Row), int(e.Col), e.Val)
		}
	}
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
	// NaN is neither above nor below 0: a pass that holds nothing out.
	if train, test := SplitTrainTest(a, math.NaN(), 9); !Equal(train, a) || len(test) != 0 {
		t.Fatalf("a NaN fraction must keep every entry in training, held out %d", len(test))
	}
}

// lateColumns is an m x n matrix with empty rows (every fourth one and
// the first two) and columns first seen late: the upper half of the
// catalogue only appears in the last rows, where every earlier column is
// already seen.
func lateColumns(r *rand.Rand, m, n int) *CSR {
	c := NewCOO(m, n, 0)
	for i := 2; i < m; i++ {
		if i%4 == 3 {
			continue
		}
		width := n / 2
		if i >= m-3 {
			width = n
		}
		for k := r.Intn(3 * n / 4); k >= 0; k-- {
			c.Add(i, r.Intn(width), r.NormFloat64()*3)
		}
	}
	return c.ToCSR()
}

// sameSplit reports where two splits differ: the training RowPtr, Col
// and Val bits, and the test entries in order.
func sameSplit(gotTrain *CSR, gotTest []Entry, wantTrain *CSR, wantTest []Entry) error {
	if gotTrain.M != wantTrain.M || gotTrain.N != wantTrain.N {
		return fmt.Errorf("train is %d x %d, want %d x %d", gotTrain.M, gotTrain.N, wantTrain.M, wantTrain.N)
	}
	if !slices.Equal(gotTrain.RowPtr, wantTrain.RowPtr) || !slices.Equal(gotTrain.Col, wantTrain.Col) {
		return fmt.Errorf("train RowPtr or Col differs")
	}
	if len(gotTrain.Val) != len(wantTrain.Val) {
		return fmt.Errorf("train has %d values, want %d", len(gotTrain.Val), len(wantTrain.Val))
	}
	for k, v := range gotTrain.Val {
		if math.Float64bits(v) != math.Float64bits(wantTrain.Val[k]) {
			return fmt.Errorf("train value %d is %x, want %x", k, math.Float64bits(v), math.Float64bits(wantTrain.Val[k]))
		}
	}
	if len(gotTest) != len(wantTest) {
		return fmt.Errorf("%d test entries, want %d", len(gotTest), len(wantTest))
	}
	for k, e := range gotTest {
		w := wantTest[k]
		if e.Row != w.Row || e.Col != w.Col || math.Float64bits(e.Val) != math.Float64bits(w.Val) {
			return fmt.Errorf("test entry %d is %+v, want %+v", k, e, w)
		}
	}
	return nil
}

// TestLoadSplitCorpusMatchesSplitTrainTest: the file door is
// SplitTrainTest(Load(path)) bit for bit — on .bcsr files cut into
// panels of 1, 7, 64 and 2²⁰ target entries (so rows of one panel and
// panels of one row both occur) and on MatrixMarket text, at fractions 0,
// 0.2, 1 and NaN, over shapes with empty rows and late columns.
func TestLoadSplitCorpusMatchesSplitTrainTest(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	dir := t.TempDir()
	for trial := 0; trial < 8; trial++ {
		a := lateColumns(r, 10+r.Intn(60), 4+r.Intn(40))
		seed := uint64(r.Int63())
		var files []string
		for _, target := range []int{1, 7, 64, 1 << 20} {
			var buf bytes.Buffer
			if err := WriteBinarySharded(&buf, a, target); err != nil {
				t.Fatal(err)
			}
			files = append(files, filepath.Join(dir, fmt.Sprintf("t%d-%d.bcsr", trial, target)))
			if err := os.WriteFile(files[len(files)-1], buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		files = append(files, filepath.Join(dir, fmt.Sprintf("t%d.mtx", trial)))
		if err := os.WriteFile(files[len(files)-1], mmBytes(t, a), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			full, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0, 0.2, 1, math.NaN()} {
				wantTrain, wantTest := SplitTrainTest(full, frac, seed)
				gotTrain, gotTest, err := LoadSplit(path, frac, seed)
				if err != nil {
					t.Fatalf("%s frac %g: %v", filepath.Base(path), frac, err)
				}
				if err := sameSplit(gotTrain, gotTest, wantTrain, wantTest); err != nil {
					t.Fatalf("%s frac %g: %v", filepath.Base(path), frac, err)
				}
			}
		}
	}
}

// TestLoadSplitRejectsHostileFiles: a damaged .bcsr file is refused by
// the split door in Load's words — a CRC flip, a column past the
// catalogue, a row whose columns do not ascend (both re-signed, so only
// the panel rules object) and headers that lie about their size — and a
// lying header is refused before anything is allocated on its claim.
func TestLoadSplitRejectsHostileFiles(t *testing.T) {
	valid := multiShardBCSR(t)
	mp, err := OpenBinaryBytes(valid)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	const shard = 2
	rows := int(mp.lay.hi[shard] - mp.lay.lo[shard])
	colOff, _, end := panelSections(rows, mp.pNNZ[shard])
	at := mp.pOff[shard]
	resign := func(damage func(p []byte)) func([]byte) []byte {
		return func(img []byte) []byte {
			p := img[at : at+end]
			damage(p)
			le.PutUint64(img[at-8:], uint64(crc32.ChecksumIEEE(p)))
			return img
		}
	}
	lying := func(nnz uint64) func([]byte) []byte {
		return func([]byte) []byte {
			img := []byte(bcsrMagic)
			for _, v := range []uint64{1 << 24, 10, nnz, 1 << 24} {
				img = le.AppendUint64(img, v)
			}
			return append(img, make([]byte, 100)...)
		}
	}
	for _, tc := range []struct {
		name    string
		make    func([]byte) []byte
		onTrust bool // the refusal must allocate nothing
	}{
		{"CRC flip", func(img []byte) []byte { img[at+end-1] ^= 1; return img }, false},
		{"column past the catalogue", resign(func(p []byte) { le.PutUint32(p[colOff:], 30) }), false},
		{"row not ascending", resign(func(p []byte) {
			c := p[colOff:]
			a, b := le.Uint32(c), le.Uint32(c[4:])
			le.PutUint32(c, b)
			le.PutUint32(c[4:], a)
		}), false},
		{"header claims 2^60 entries", lying(1 << 60), true},
		{"header claims a 2^24-shard table", lying(1 << 58), true},
		{"header promises more entries than the shards hold", func(img []byte) []byte {
			le.PutUint64(img[bcsrNNZOffset:], le.Uint64(img[bcsrNNZOffset:])+1)
			return img
		}, false},
	} {
		path := writeTempBCSR(t, tc.make(append([]byte(nil), valid...)))
		_, loadErr := Load(path)
		if loadErr == nil {
			t.Fatalf("%s: Load accepted the file", tc.name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		train, test, err := LoadSplit(path, 0.2, 7)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != loadErr.Error() || train != nil || test != nil {
			t.Errorf("%s: LoadSplit returned %v (train %v, %d test entries), want Load's %v", tc.name, err, train != nil, len(test), loadErr)
		}
		if got := after.TotalAlloc - before.TotalAlloc; tc.onTrust && got >= 64<<10 {
			t.Errorf("%s: refusing the file allocated %d bytes, want under 64 KiB", tc.name, got)
		}
	}
}
