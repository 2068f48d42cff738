package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/sparse"
)

func ckptProblem(t *testing.T) *Problem {
	t.Helper()
	ds := datagen.Generate(datagen.Small(71))
	train, test := sparse.SplitTrainTest(ds.R, 0.2, 71)
	return NewProblem(train, test)
}

func ckptConfig() Config {
	cfg := DefaultConfig()
	cfg.K = 6
	cfg.Iters = 8
	cfg.Burnin = 3
	cfg.RankOneMax = 4
	cfg.KernelThreshold = 20
	return cfg
}

func TestCheckpointResumeBitwise(t *testing.T) {
	prob := ckptProblem(t)
	cfg := ckptConfig()

	// Straight run.
	s1, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := s1.Run()

	// Run 4 iterations, checkpoint, resume for the rest.
	s2, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 4; it++ {
		s2.Step(it)
	}
	ckpt := s2.Checkpoint()
	if ckpt.NextIter != 4 {
		t.Fatalf("NextIter = %d", ckpt.NextIter)
	}
	s3, err := ResumeSampler(cfg, prob, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	got := s3.RunFrom(ckpt.NextIter)

	if la.MaxAbsDiff(got.U, want.U) != 0 || la.MaxAbsDiff(got.V, want.V) != 0 {
		t.Fatal("resumed chain differs from uninterrupted run")
	}
	for i := range want.AvgRMSE {
		if got.AvgRMSE[i] != want.AvgRMSE[i] {
			t.Fatalf("RMSE trace differs at iter %d", i)
		}
	}
	if got.KernelCounts != want.KernelCounts || got.ItemUpdates != want.ItemUpdates {
		t.Fatal("counters differ after resume")
	}
}

func TestCheckpointSerializationRoundTrip(t *testing.T) {
	prob := ckptProblem(t)
	cfg := ckptConfig()
	s, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 5; it++ {
		s.Step(it)
	}
	ckpt := s.Checkpoint()
	var buf bytes.Buffer
	if err := ckpt.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NextIter != ckpt.NextIter || back.Seed != ckpt.Seed || back.NSamples != ckpt.NSamples {
		t.Fatal("header mismatch after round trip")
	}
	if la.MaxAbsDiff(back.U, ckpt.U) != 0 || la.MaxAbsDiff(back.V, ckpt.V) != 0 {
		t.Fatal("factors corrupted by serialization")
	}
	for i := range ckpt.PredSum {
		if back.PredSum[i] != ckpt.PredSum[i] || back.PredSumSq[i] != ckpt.PredSumSq[i] {
			t.Fatal("predictor state corrupted")
		}
	}
	// Resume from the deserialized checkpoint must still be exact.
	s2, err := ResumeSampler(cfg, prob, back)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.RunFrom(back.NextIter)
	ref, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run()
	if la.MaxAbsDiff(got.U, want.U) != 0 {
		t.Fatal("resume from serialized checkpoint diverged")
	}
}

func TestCheckpointValidation(t *testing.T) {
	prob := ckptProblem(t)
	cfg := ckptConfig()
	s, _ := NewSampler(cfg, prob)
	s.Step(0)
	ckpt := s.Checkpoint()

	bad := cfg
	bad.K = 8
	if _, err := ResumeSampler(bad, prob, ckpt); err == nil {
		t.Fatal("expected K mismatch error")
	}
	bad = cfg
	bad.Seed = 1
	if _, err := ResumeSampler(bad, prob, ckpt); err == nil {
		t.Fatal("expected seed mismatch error")
	}
	other := NewProblem(datagen.Generate(datagen.Tiny(1)).R, nil)
	if _, err := ResumeSampler(cfg, other, ckpt); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewBufferString("not a checkpoint at all")); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := ReadCheckpoint(bytes.NewBufferString(ckptMagic)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestReadCheckpointTruncatedStreams(t *testing.T) {
	prob := ckptProblem(t)
	cfg := ckptConfig()
	s, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 3; it++ {
		s.Step(it)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint().Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must produce an error, never a panic or a
	// silently short checkpoint — including cuts inside the magic, the
	// header, and the float body.
	cuts := []int{0, 1, len(ckptMagic) - 1, len(ckptMagic), len(ckptMagic) + 3,
		len(ckptMagic) + 8*5, len(full) / 4, len(full) / 2, len(full) - 8, len(full) - 1}
	// ... and one byte either side of every refill of the decode buffer.
	body := len(ckptMagic) + ckptHeaderLen
	for at := body; at < len(full); at += 8 * codecFloats {
		cuts = append(cuts, at-1, at, at+1)
	}
	for _, cut := range cuts {
		if _, err := ReadCheckpoint(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes: expected error", cut, len(full))
		}
	}
	// The untruncated stream still reads.
	if _, err := ReadCheckpoint(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream: %v", err)
	}

	// A header that promises 8 GiB of U over a stream that ends one byte
	// either side of an allocation chunk gets the body error after at most
	// one more chunk: the decoder allocates as it reads, never from the
	// header alone.
	hdr := craftHeader(8, 0, 1<<27, 10, 0, 0, 0)
	for _, bodyLen := range []int{8*floatChunk - 1, 8 * floatChunk, 8*floatChunk + 1} {
		stream := append(append([]byte(nil), hdr...), make([]byte, bodyLen)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadCheckpoint(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "checkpoint body") {
			t.Fatalf("%d-byte body under an 8 GiB header: err = %v, want the body error", bodyLen, err)
		}
		// The 1 MiB read buffer, the chunk read so far and the grown slice
		// being filled: a few chunks (more under the race detector), not
		// the header's 8 GiB.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+8*8*floatChunk); got > limit {
			t.Fatalf("%d-byte body under an 8 GiB header: allocated %d bytes, limit %d", bodyLen, got, limit)
		}
	}
}

// ckptHeaderLen is the fixed header after the magic: twelve uint64s.
const ckptHeaderLen = 8 * 12

// writeReference is the per-value encoder Checkpoint.Write replaced: one
// reflective binary.Write per uint64. It stays here as the definition of
// the BPMFCKPT2 bytes.
func writeReference(c *Checkpoint) []byte {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	u64 := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
	u64(uint64(c.K))
	u64(uint64(c.NextIter))
	u64(c.Seed)
	u64(uint64(c.U.Rows))
	u64(uint64(c.V.Rows))
	u64(uint64(len(c.PredSum)))
	u64(uint64(c.NSamples))
	u64(uint64(len(c.SampleRMSE)))
	u64(uint64(c.ItemUpdates))
	for _, kc := range c.KernelCounts {
		u64(uint64(kc))
	}
	for _, v := range [][]float64{c.U.Data, c.V.Data, c.PredSum, c.PredSumSq, c.SampleRMSE, c.AvgRMSE} {
		for _, x := range v {
			u64(math.Float64bits(x))
		}
	}
	return buf.Bytes()
}

// awkwardFloats is n values cycling through the bit patterns a codec
// could mangle: quiet and signalling NaNs with payloads, -0, denormals,
// infinities, beside ordinary values that differ at every index.
func awkwardFloats(n int, salt uint64) []float64 {
	special := []uint64{
		0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, // NaNs
		0x8000000000000000,                     // -0
		0x0000000000000001, 0x800fffffffffffff, // denormals
		0x7ff0000000000000, 0xfff0000000000000, // +-Inf
	}
	v := make([]float64, n)
	for i := range v {
		if i%3 == 0 {
			v[i] = math.Float64frombits(special[(i/3)%len(special)])
		} else {
			v[i] = float64(i) + float64(salt)/7
		}
	}
	return v
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCheckpointCodecGolden: the bulk codec writes the bytes of the
// per-value reference encoder and reads every field back bit for bit,
// for run lengths on both sides of the stack buffer's size.
func TestCheckpointCodecGolden(t *testing.T) {
	lengths := []int{0, 1, codecFloats - 1, codecFloats, codecFloats + 1, 3*codecFloats + 5}
	for i := range lengths {
		// Rotate the lengths over the three kinds of run, so every length
		// is taken by U, V, the accumulators and the traces in turn.
		nU, nV, nTest, nTrace := lengths[i], lengths[(i+1)%len(lengths)], lengths[(i+2)%len(lengths)], lengths[(i+3)%len(lengths)]
		c := &Checkpoint{
			K: 1, NextIter: nTrace, Seed: 0xfeedfacecafe, NSamples: 3,
			U:            &la.Matrix{Rows: nU, Cols: 1, Data: awkwardFloats(nU, 1)},
			V:            &la.Matrix{Rows: nV, Cols: 1, Data: awkwardFloats(nV, 2)},
			PredSum:      awkwardFloats(nTest, 3),
			PredSumSq:    awkwardFloats(nTest, 4),
			SampleRMSE:   awkwardFloats(nTrace, 5),
			AvgRMSE:      awkwardFloats(nTrace, 6),
			KernelCounts: [3]int64{7, 1 << 40, 9},
			ItemUpdates:  1<<62 + 5,
		}
		var got bytes.Buffer
		if err := c.Write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), writeReference(c)) {
			t.Fatalf("U=%d V=%d test=%d trace=%d: Write differs from the per-value reference encoder", nU, nV, nTest, nTrace)
		}
		back, err := ReadCheckpoint(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("U=%d V=%d test=%d trace=%d: %v", nU, nV, nTest, nTrace, err)
		}
		if back.K != c.K || back.NextIter != c.NextIter || back.Seed != c.Seed || back.NSamples != c.NSamples ||
			back.KernelCounts != c.KernelCounts || back.ItemUpdates != c.ItemUpdates ||
			back.U.Rows != nU || back.U.Cols != 1 || back.V.Rows != nV || back.V.Cols != 1 {
			t.Fatalf("U=%d V=%d test=%d trace=%d: header fields changed in the round trip", nU, nV, nTest, nTrace)
		}
		if !sameBits(back.U.Data, c.U.Data) || !sameBits(back.V.Data, c.V.Data) ||
			!sameBits(back.PredSum, c.PredSum) || !sameBits(back.PredSumSq, c.PredSumSq) ||
			!sameBits(back.SampleRMSE, c.SampleRMSE) || !sameBits(back.AvgRMSE, c.AvgRMSE) {
			t.Fatalf("U=%d V=%d test=%d trace=%d: a float run changed bits in the round trip", nU, nV, nTest, nTrace)
		}
	}
}

// TestCheckpointWriteAllocsIndependentOfSize: Write encodes through a
// stack buffer, so it allocates the same two objects (the bufio.Writer
// and its 1 MiB buffer) whether the factors hold a hundred values or a
// million: the count must not grow with size and must stay small.
//
// AllocsPerRun counts every malloc in the process, and Write's 1 MiB
// buffers are what push a fresh test binary over the 4 MiB heap trigger:
// the fourth call starts the process's first GC cycle, whose one-time
// start-up (the background mark workers) showed up as 8 extra mallocs in
// whichever measurement ran first — 3 per run for 10 rows against 2 for
// 60000 when this test runs alone, 2 and 2 after any test that had
// already collected. The explicit cycle below pays that once, outside
// the measurement.
func TestCheckpointWriteAllocsIndependentOfSize(t *testing.T) {
	runtime.GC()
	allocs := func(rows int) float64 {
		c := &Checkpoint{K: 8, U: la.NewMatrix(rows, 8), V: la.NewMatrix(rows, 8),
			PredSum: make([]float64, rows), PredSumSq: make([]float64, rows)}
		return testing.AllocsPerRun(5, func() {
			if err := c.Write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(60000)
	if large > small || large > 4 {
		t.Fatalf("Write allocates %v times for 10 rows and %v for 60000, want a count that does not grow and stays <= 4", small, large)
	}
}

// craftHeader builds a syntactically valid checkpoint header with the
// given dimension fields and no body.
func craftHeader(k, nextIter, uRows, vRows, nTest, nSamples, nTrace uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	w := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		buf.Write(b[:])
	}
	w(k)
	w(nextIter)
	w(42) // seed
	w(uRows)
	w(vRows)
	w(nTest)
	w(nSamples)
	w(nTrace)
	w(0) // item updates
	w(0)
	w(0)
	w(0) // kernel counts
	return buf.Bytes()
}

// implausibleHeaders are syntactically valid headers ReadCheckpoint must
// refuse before it allocates (also FuzzReadCheckpoint's seeds).
var implausibleHeaders = []struct {
	name string
	hdr  []byte
}{
	{"zero K", craftHeader(0, 0, 10, 10, 0, 0, 0)},
	{"huge K", craftHeader(1<<20, 0, 10, 10, 0, 0, 0)},
	{"negative uRows", craftHeader(8, 0, 1<<63, 10, 0, 0, 0)},
	{"negative NextIter", craftHeader(8, 1<<63, 10, 10, 0, 0, 0)},
	{"negative NSamples", craftHeader(8, 0, 10, 10, 0, 1<<63, 0)},
	{"huge trace", craftHeader(8, 0, 10, 10, 0, 0, 1<<30)},
	// Each dimension is individually in range, but rows*K overflows
	// the element cap: must error before allocating.
	{"product overflow", craftHeader(1<<16, 0, 1<<31, 1<<31, 1<<31, 0, 0)},
	{"product overflow V", craftHeader(1<<16, 0, 10, 1<<31, 0, 0, 0)},
}

func TestReadCheckpointRejectsImplausibleHeaders(t *testing.T) {
	for _, tc := range implausibleHeaders {
		if _, err := ReadCheckpoint(bytes.NewReader(tc.hdr)); err == nil {
			t.Fatalf("%s: expected header rejection", tc.name)
		}
	}
}

// chokedWriter fails after accepting limit bytes, like a disk filling up.
type chokedWriter struct {
	limit   int
	written int
}

func (w *chokedWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		if n < 0 {
			n = 0
		}
		w.written = w.limit
		return n, errShortDisk
	}
	w.written += len(p)
	return len(p), nil
}

var errShortDisk = fmt.Errorf("no space left on device")

func TestCheckpointWritePropagatesIOErrors(t *testing.T) {
	prob := ckptProblem(t)
	cfg := ckptConfig()
	s, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(0)
	ckpt := s.Checkpoint()
	var buf bytes.Buffer
	if err := ckpt.Write(&buf); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	// A writer that chokes at any point must surface an error: a full
	// disk can never masquerade as a successful checkpoint.
	for _, limit := range []int{0, 1, 16, size / 2, size - 1} {
		w := &chokedWriter{limit: limit}
		if err := ckpt.Write(w); err == nil {
			t.Fatalf("limit %d/%d bytes: Write reported success", limit, size)
		}
	}
	if err := ckpt.Write(&chokedWriter{limit: size}); err != nil {
		t.Fatalf("exact-size writer must succeed: %v", err)
	}
}
