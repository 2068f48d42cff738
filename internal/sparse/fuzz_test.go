package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fuzz_test.go is the loader-hardening corpus: no byte stream, however
// corrupt, may panic either MatrixMarket parser or the bcsr reader, and
// the two MatrixMarket parsers must stay decision-identical (the
// parallel parser's contract is "bit-identical to the sequential
// parse", which includes rejecting exactly the same inputs). The
// f.Add seeds double as a regression corpus that plain `go test` (and
// the CI loader job) runs without the fuzz engine.

func mmSeeds() [][]byte {
	seeds := [][]byte{
		[]byte(""),
		[]byte("not a matrix"),
		[]byte("%%MatrixMarket matrix coordinate real general\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.5\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n% c\n\n2 2 1\n1 1 1.5"),
		[]byte("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 2\n"),
		[]byte("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 9\n"),
		[]byte("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 1\n"),
		[]byte("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1 0\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 Inf\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n99999999999999 2 1\n1 1 1\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 99\n1 1 1\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n1\t2\t3\r\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 2\n"), // duplicate: summed
		[]byte("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 3\n"),        // unicode space: fallback path
	}
	return seeds
}

// FuzzReadMatrixMarket is the differential fuzz target: sequential and
// parallel parsers must agree on accept/reject, and on acceptance the
// matrices must be bit-identical.
func FuzzReadMatrixMarket(f *testing.F) {
	for _, s := range mmSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			// The sequential scanner caps line length at 1 MiB; keep fuzz
			// inputs well under it so the two parsers see the same lines.
			return
		}
		seq, seqErr := ReadMatrixMarket(bytes.NewReader(data))
		par, parErr := ParseMatrixMarket(data, nil)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("parsers disagree: sequential err=%v, parallel err=%v", seqErr, parErr)
		}
		if seqErr == nil && !Equal(seq, par) {
			t.Fatalf("parsers accept but matrices differ (%dx%d nnz=%d vs %dx%d nnz=%d)",
				seq.M, seq.N, seq.NNZ(), par.M, par.N, par.NNZ())
		}

		// The tokenizer differential, line by line and independent of
		// which reader calls which: the byte-level scanner and the
		// strings.Fields reference must produce the same entry, bit for
		// bit, or both refuse the line.
		m, n := 16, 16
		if seqErr == nil {
			m, n = seq.M, seq.N
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if isMMSkipLine(line) {
				continue
			}
			fast, fastErr := parseEntryBytes(line, m, n)
			ref, refErr := parseEntryFields(strings.Fields(string(line)), m, n)
			if (fastErr == nil) != (refErr == nil) {
				t.Fatalf("line %q in %dx%d: parseEntryBytes err=%v, parseEntryFields err=%v", line, m, n, fastErr, refErr)
			}
			if fastErr == nil && (fast.Row != ref.Row || fast.Col != ref.Col || math.Float64bits(fast.Val) != math.Float64bits(ref.Val)) {
				t.Fatalf("line %q: parseEntryBytes %+v, parseEntryFields %+v", line, fast, ref)
			}
		}
	})
}

// FuzzReadBinary hammers the bcsr readers differentially: arbitrary
// bytes must error or yield a matrix that survives a write/read round
// trip, and the streaming and mapped readers must agree: the same
// matrix on accept, the same error text for a rejected payload.
func FuzzReadBinary(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	a := randomCSR(r, 12, 40)
	var buf bytes.Buffer
	if err := WriteBinarySharded(&buf, a, 10); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(bcsrMagic)])
	f.Add(valid[:len(valid)/2])
	for off := 0; off < len(valid); off += 7 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x81
		f.Add(mut)
	}
	f.Add([]byte("BPMFBCSR1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256<<10 {
			return
		}
		got, err := ReadBinary(bytes.NewReader(data))

		// Mapped reader: open (eager framing checks) + full lazy decode
		// must reach the same verdict as the streaming read — and, for
		// damage only the lazy decode can see, in the same words (a
		// file with a second, framing-level defect fails at open, before
		// the streaming read would have reached it).
		mp, mapErr := openBinaryBytes(data)
		opened := mapErr == nil
		var mapGot *CSR
		if opened {
			mapGot, mapErr = mp.Matrix()
		}
		if (err == nil) != (mapErr == nil) || (opened && err != nil && err.Error() != mapErr.Error()) {
			t.Fatalf("readers disagree: ReadBinary err=%v, mapped err=%v", err, mapErr)
		}
		if err != nil {
			return
		}
		if !Equal(got, mapGot) {
			t.Fatal("readers accept but matrices differ")
		}
		var rt bytes.Buffer
		if err := WriteBinary(&rt, got); err != nil {
			t.Fatalf("accepted matrix fails to re-serialize: %v", err)
		}
		back, err := ReadBinary(bytes.NewReader(rt.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized matrix fails to parse: %v", err)
		}
		if !Equal(got, back) {
			t.Fatal("accepted matrix does not round-trip")
		}
	})
}
