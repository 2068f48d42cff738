package sparse

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
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

// FuzzReadBinary hammers the bcsr reader: arbitrary bytes must error, or
// yield a matrix that re-serialises and re-reads Equal; and the read may
// allocate only what the file's real size backs — the decoded arrays
// (whose lengths open proved against the file), the per-shard index
// (shards the file really frames, under 4x the input) and 64 KiB of
// slack — however large the header's claims.
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
	hostile := []byte(bcsrMagic) // 2^24 shards and 2^58 entries over a 100-byte body
	for _, v := range []uint64{1 << 24, 10, 1 << 58, 1 << 24} {
		hostile = binary.LittleEndian.AppendUint64(hostile, v)
	}
	f.Add(append(hostile, make([]byte, 100)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256<<10 {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mp, err := openBinaryBytes(data)
		var got *CSR
		arrays := 0
		if err == nil {
			m, _ := mp.Dims()
			arrays = (m+1)*8 + int(mp.NNZ())*12
			got, err = mp.Matrix()
		}
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+4*len(data)+arrays); alloc > limit {
			t.Fatalf("%d input bytes: allocated %d, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		var rt bytes.Buffer
		if err := WriteBinary(&rt, got); err != nil {
			t.Fatalf("accepted matrix fails to re-serialize: %v", err)
		}
		back, err := readBCSR(rt.Bytes())
		if err != nil {
			t.Fatalf("re-serialized matrix fails to parse: %v", err)
		}
		if !Equal(got, back) {
			t.Fatal("accepted matrix does not round-trip")
		}
	})
}
