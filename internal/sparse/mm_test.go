package sparse

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// mm_test.go pins the one MatrixMarket reader, scanMM over
// parseEntryBytes, at both of its doors: ReadMatrixMarket on a stream and
// Load on a file. fuzz_test.go holds it to the reference tokenizer.

// randomCSR builds a random matrix with duplicate coordinates (so the
// canonical duplicate-summation order is exercised) and a mix of value
// magnitudes, signs and precisions.
func randomCSR(r *rand.Rand, maxDim, nnz int) *CSR {
	m, n := 1+r.Intn(maxDim), 1+r.Intn(maxDim)
	c := NewCOO(m, n, nnz)
	for k := 0; k < nnz; k++ {
		v := r.NormFloat64() * 100
		if r.Intn(10) == 0 {
			v = float64(r.Intn(10)) // exact small integers hit the fast float path
		}
		c.Add(r.Intn(m), r.Intn(n), v)
	}
	return c.ToCSR()
}

// mmBytes renders a through the package's own writer.
func mmBytes(t *testing.T, a *CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readMMReference is ReadMatrixMarket over parseEntryLine, the
// strings.Fields reference tokenizer.
func readMMReference(data []byte) (*CSR, error) {
	var coo *COO
	err := scanMM(bytes.NewReader(data), parseEntryLine, func(m, n, _ int) error {
		coo = NewCOO(m, n, 0)
		return nil
	}, func(e Entry) error {
		coo.Entries = append(coo.Entries, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return coo.ToCSR(), nil
}

// mmReaders are the doors MatrixMarket text comes in by: a stream, and a
// file that Load sniffs.
func mmReaders(t *testing.T) map[string]func(src string) (*CSR, error) {
	return map[string]func(string) (*CSR, error){
		"ReadMatrixMarket": func(src string) (*CSR, error) { return ReadMatrixMarket(strings.NewReader(src)) },
		"Load": func(src string) (*CSR, error) {
			path := filepath.Join(t.TempDir(), "m.mtx")
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			return Load(path)
		},
	}
}

// TestMatrixMarketCommentsAndCRLF checks the messy-but-legal inputs real
// exports produce: interleaved comments, blank lines, CRLF endings and a
// missing final newline.
func TestMatrixMarketCommentsAndCRLF(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\r\n" +
		"% a comment\r\n" +
		"\r\n" +
		"3 4 5\r\n" +
		"1 2 1.5\r\n" +
		"% mid-stream comment\r\n" +
		"1 4 2.5\r\n" +
		"3 1 -1\r\n" +
		"2 3 4\r\n" +
		"3 4 7" // no trailing newline
	for name, read := range mmReaders(t) {
		got, err := read(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(smallCSR(), got) {
			t.Fatalf("%s: CRLF file read as %+v", name, got)
		}
	}
}

func TestParsePatternAndIntegerFields(t *testing.T) {
	pat := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	intsrc := "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n"
	for name, read := range mmReaders(t) {
		a, err := read(pat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.NNZ() != 2 || a.Val[0] != 1 || a.Val[1] != 1 {
			t.Fatalf("%s: pattern entries should default to 1.0: %v", name, a.Val)
		}
		a, err = read(intsrc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.NNZ() != 1 || a.Val[0] != 7 {
			t.Fatalf("%s: integer field value = %v", name, a.Val)
		}
	}
}

// TestMatrixMarketRejectsMalformed: both doors refuse every malformed
// header, size line and body.
func TestMatrixMarketRejectsMalformed(t *testing.T) {
	cases := []string{
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",    // row out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 5 1\n",    // col out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",    // zero index (1-based format)
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n-1 1 1\n",   // negative index
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n",  // NaN value
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 +Inf\n", // infinite value
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",        // too few fields
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",    // garbage index
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n",   // garbage value
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",    // count mismatch
		"%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n",      // bad size line
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 1\n",  // unsupported symmetry
		"%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1 0\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n1\n1\n1\n",
		"%%MatrixMarket vector coordinate real general\n2 2 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n999999999999 2 1\n1 1 1\n", // dim over cap
		"%%MatrixMarket matrix coordinate real general\n2 2 -1\n",                  // negative nnz
		"not a matrix\n",
		"",
		// Lines past maxMMLine: the scanner refuses them rather than
		// growing its buffer, in the prologue and in the body.
		"%%MatrixMarket matrix coordinate real general\n% " + strings.Repeat("x", 2<<20) + "\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1" + strings.Repeat(" ", maxMMLine) + "\n",
	}
	for name, read := range mmReaders(t) {
		for i, src := range cases {
			if _, err := read(src); err == nil {
				t.Errorf("%s: case %d accepted %q", name, i, truncateForErr(src))
			}
		}
	}
}

// TestLoadMatrixMarketStreams: Load reads a .mtx file through the scanner
// instead of into memory whole, so on a million entries it allocates
// under 4x the returned matrix's arrays — the entries once, the CSR and
// the scanner's line buffer. Reading the whole file and parsing it in
// chunks took about 15x.
func TestLoadMatrixMarketStreams(t *testing.T) {
	const m, n, perRow = 20000, 5000, 50 // 1 M entries, no duplicates
	r := rand.New(rand.NewSource(41))
	a := &CSR{M: m, N: n, RowPtr: make([]int64, m+1), Col: make([]int32, 0, m*perRow), Val: make([]float64, 0, m*perRow)}
	for i := 0; i < m; i++ {
		for k := 0; k < perRow; k++ {
			a.Col = append(a.Col, int32(k*(n/perRow)+i%(n/perRow))) // ascending
			a.Val = append(a.Val, 0.5+4.5*r.Float64())
		}
		a.RowPtr[i+1] = int64(len(a.Col))
	}
	path := filepath.Join(t.TempDir(), "big.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixMarket(f, a); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Load(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, got) {
		t.Fatal("Load differs from the written matrix")
	}
	arrays := uint64(len(got.RowPtr)*8 + len(got.Col)*4 + len(got.Val)*8)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d entries: allocated %d bytes, %.2fx the CSR's %d", got.NNZ(), alloc, float64(alloc)/float64(arrays), arrays)
	if alloc >= 4*arrays {
		t.Fatalf("Load allocated %d bytes, want under 4x the CSR's %d", alloc, arrays)
	}
}

// TestParseIntBytesMatchesAtoi pins the manual integer scanner to the
// strconv accept set on representative tokens (the fallback path in
// parseEntryBytes relies on the two agreeing).
func TestParseIntBytesMatchesAtoi(t *testing.T) {
	tokens := []string{"0", "7", "+7", "-7", "007", "123456789", "", "+", "-", "1x", "x1", "1.5", "1e3", " 1", "--1"}
	for _, tok := range tokens {
		v, err := parseIntBytes([]byte(tok))
		want, werr := strconv.Atoi(tok)
		if (err != nil) != (werr != nil) {
			t.Errorf("token %q: manual err=%v, Atoi err=%v", tok, err, werr)
			continue
		}
		if err == nil && int(v) != want {
			t.Errorf("token %q: manual=%d, Atoi=%d", tok, v, want)
		}
	}
}
