package sparse

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sched"
)

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

func TestParallelParseBitIdenticalToSequential(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		a := randomCSR(r, 50, 400)
		data := mmBytes(t, a)
		want, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*sched.Pool{nil, pool} {
			got, err := ParseMatrixMarket(data, p)
			if err != nil {
				t.Fatalf("trial %d (pool=%v): %v", trial, p != nil, err)
			}
			if !Equal(want, got) {
				t.Fatalf("trial %d (pool=%v): parallel parse differs from sequential", trial, p != nil)
			}
		}
	}
}

// TestParallelParseManyChunks forces the multi-chunk path: the body must
// exceed parseChunkTarget so chunk splitting, per-chunk counting and the
// deterministic merge all run.
func TestParallelParseManyChunks(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := randomCSR(r, 400, 40000)
	data := mmBytes(t, a)
	if len(data) < 2*parseChunkTarget {
		t.Fatalf("test matrix renders to %d bytes, need > %d for multiple chunks", len(data), 2*parseChunkTarget)
	}
	pool := sched.NewPool(4)
	defer pool.Close()
	want, err := ReadMatrixMarket(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMatrixMarket(data, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(want, got) {
		t.Fatal("multi-chunk parallel parse differs from sequential")
	}
}

// TestParallelParseWithCommentsAndCRLF checks the messy-but-legal inputs
// real exports produce: interleaved comments, blank lines, CRLF endings,
// value-less pattern entries defaulting to 1, and a missing final newline.
func TestParallelParseWithCommentsAndCRLF(t *testing.T) {
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
	want, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMatrixMarket([]byte(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(want, got) {
		t.Fatal("CRLF parse differs from sequential")
	}
	if want.NNZ() != 5 {
		t.Fatalf("expected 5 entries, got %d", want.NNZ())
	}
}

func TestParsePatternAndIntegerFields(t *testing.T) {
	pat := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	for _, parse := range []func() (*CSR, error){
		func() (*CSR, error) { return ReadMatrixMarket(strings.NewReader(pat)) },
		func() (*CSR, error) { return ParseMatrixMarket([]byte(pat), nil) },
	} {
		a, err := parse()
		if err != nil {
			t.Fatal(err)
		}
		if a.NNZ() != 2 || a.Val[0] != 1 || a.Val[1] != 1 {
			t.Fatalf("pattern entries should default to 1.0: %v", a.Val)
		}
	}
	intsrc := "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n"
	a, err := ParseMatrixMarket([]byte(intsrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Val[0] != 7 {
		t.Fatalf("integer field value = %v", a.Val[0])
	}
}

// TestToCSRParallelWithDuplicates is the pool ≡ inline check of the one
// COO → CSR build, on the compaction path (duplicate coordinates shrink
// rows, so the scattered arrays must be re-packed).
func TestToCSRParallelWithDuplicates(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		m, n := 1+r.Intn(30), 1+r.Intn(10) // narrow: lots of duplicates
		c := NewCOO(m, n, 200)
		for k := 0; k < 200; k++ {
			c.Add(r.Intn(m), r.Intn(n), r.NormFloat64())
		}
		seq := c.ToCSR()
		par := (&COO{M: m, N: n, Entries: c.Entries}).toCSR(pool)
		if !Equal(seq, par) {
			t.Fatalf("trial %d: parallel CSR build differs", trial)
		}
	}
}

// TestParallelParseRejectsWhatSequentialRejects pins the two parsers to
// the same accept/reject decisions on malformed bodies.
func TestParallelParseRejectsWhatSequentialRejects(t *testing.T) {
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
		// A line past the 1 MiB cap: the sequential scanner's buffer
		// rejects it, so the in-memory parser must too.
		"%%MatrixMarket matrix coordinate real general\n% " + strings.Repeat("x", 2<<20) + "\n1 1 1\n1 1 1\n",
	}
	for i, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: sequential parser accepted %q", i, src)
		}
		if _, err := ParseMatrixMarket([]byte(src), nil); err == nil {
			t.Errorf("case %d: parallel parser accepted %q", i, src)
		}
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
