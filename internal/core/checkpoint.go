package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/la"
)

// Checkpoint is a serializable snapshot of a Gibbs chain after some
// iteration. Because every random draw is keyed by (seed, iteration,
// side, item), resuming from a checkpoint continues the *exact* chain:
// a run checkpointed at iteration t and resumed reproduces an
// uninterrupted run bit-for-bit — with any engine, since all engines
// sample the same chain. (A production property the paper's 15-day
// industrial runs would need.)
type Checkpoint struct {
	K        int
	NextIter int // first iteration to execute on resume
	Seed     uint64
	U, V     *la.Matrix

	// Predictor state (posterior-mean accumulators).
	PredSum   []float64
	PredSumSq []float64
	NSamples  int

	// Result trace so far.
	SampleRMSE, AvgRMSE []float64
	KernelCounts        [3]int64
	ItemUpdates         int64
}

const ckptMagic = "BPMFCKPT2\n"

// View captures the chain after the iterations executed so far as a
// checkpoint that aliases the sampler's live matrices, accumulators and
// traces — for a writer that serializes it (or a slice of it, as the
// distributed engine's per-rank fragments do) before the chain advances.
// Checkpoint is the detached copy.
func (s *Sampler) View() *Checkpoint {
	sum, sumSq, nSamples := s.Pred.Snapshot()
	return &Checkpoint{
		K:            s.Cfg.K,
		NextIter:     len(s.res.AvgRMSE),
		Seed:         s.Cfg.Seed,
		U:            s.U,
		V:            s.V,
		PredSum:      sum,
		PredSumSq:    sumSq,
		NSamples:     nSamples,
		SampleRMSE:   s.res.SampleRMSE,
		AvgRMSE:      s.res.AvgRMSE,
		KernelCounts: s.KernelCounts(),
		ItemUpdates:  s.res.ItemUpdates,
	}
}

// Checkpoint snapshots the sampler after the iterations it has executed.
func (s *Sampler) Checkpoint() *Checkpoint {
	c := s.View()
	c.U, c.V = c.U.Clone(), c.V.Clone()
	c.PredSum = append([]float64(nil), c.PredSum...)
	c.PredSumSq = append([]float64(nil), c.PredSumSq...)
	c.SampleRMSE = append([]float64(nil), c.SampleRMSE...)
	c.AvgRMSE = append([]float64(nil), c.AvgRMSE...)
	return c
}

// Restore positions the sampler mid-chain at checkpoint c, copying its
// state in. The sampler's config must match the checkpointed run (K and
// Seed are verified; the rest is the caller's contract, as with any
// restart script), and its problem the checkpoint's shape.
func (s *Sampler) Restore(c *Checkpoint) error {
	if s.Cfg.K != c.K {
		return fmt.Errorf("core: checkpoint K=%d, config K=%d", c.K, s.Cfg.K)
	}
	if s.Cfg.Seed != c.Seed {
		return fmt.Errorf("core: checkpoint seed=%d, config seed=%d", c.Seed, s.Cfg.Seed)
	}
	if c.U.Rows != s.U.Rows || c.V.Rows != s.V.Rows {
		return fmt.Errorf("core: checkpoint shape %dx%d does not match problem %dx%d",
			c.U.Rows, c.V.Rows, s.U.Rows, s.V.Rows)
	}
	if len(c.PredSum) != len(s.Prob.Test) {
		return fmt.Errorf("core: checkpoint has %d test accumulators, problem has %d",
			len(c.PredSum), len(s.Prob.Test))
	}
	if err := s.Pred.Restore(c.PredSum, c.PredSumSq, c.NSamples); err != nil {
		return err
	}
	copy(s.U.Data, c.U.Data)
	copy(s.V.Data, c.V.Data)
	s.res.SampleRMSE = append(s.res.SampleRMSE[:0], c.SampleRMSE...)
	s.res.AvgRMSE = append(s.res.AvgRMSE[:0], c.AvgRMSE...)
	for k := range s.kernelCounts {
		s.kernelCounts[k].Store(c.KernelCounts[k])
	}
	s.res.ItemUpdates = c.ItemUpdates
	return nil
}

const (
	// codecFloats is how many float64s Write and ReadCheckpoint move
	// through their fixed stack buffer per call into the buffered stream.
	codecFloats = 512
	// floatChunk is how many float64s ReadCheckpoint allocates for a
	// section before the stream has delivered any of it.
	floatChunk = 1 << 16
)

// Write serializes the checkpoint (own little-endian binary format; no
// external dependencies). Every write is error-checked: a full disk or a
// broken pipe surfaces as an error instead of a silently truncated file
// that would only be discovered at resume/serve time.
func (c *Checkpoint) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return fmt.Errorf("core: writing checkpoint magic: %w", err)
	}
	var buf [8 * codecFloats]byte
	header := [...]uint64{uint64(c.K), uint64(c.NextIter), c.Seed,
		uint64(c.U.Rows), uint64(c.V.Rows), uint64(len(c.PredSum)), uint64(c.NSamples),
		uint64(len(c.SampleRMSE)), uint64(c.ItemUpdates),
		uint64(c.KernelCounts[0]), uint64(c.KernelCounts[1]), uint64(c.KernelCounts[2])}
	for i, v := range header {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	_, err := bw.Write(buf[:8*len(header)])
	writeFloats := func(v []float64) {
		for len(v) > 0 && err == nil {
			n := min(len(v), codecFloats)
			for i, x := range v[:n] {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
			}
			_, err = bw.Write(buf[:8*n])
			v = v[n:]
		}
	}
	writeFloats(c.U.Data)
	writeFloats(c.V.Data)
	writeFloats(c.PredSum)
	writeFloats(c.PredSumSq)
	writeFloats(c.SampleRMSE)
	writeFloats(c.AvgRMSE)
	if err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flushing checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint deserializes a checkpoint written by Write.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	return readCheckpoint(r, -1)
}

// readCheckpoint is ReadCheckpoint over a stream of size bytes, or of
// unknown length when size < 0.
func readCheckpoint(r io.Reader, size int64) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if string(magic) != ckptMagic {
		return nil, fmt.Errorf("core: not a BPMF checkpoint (magic %q)", magic)
	}
	var err error
	var buf [8 * codecFloats]byte
	readU64 := func() uint64 { // meaningless once err is set; the header is used only after checking it
		if err == nil {
			_, err = io.ReadFull(br, buf[:8])
		}
		return binary.LittleEndian.Uint64(buf[:])
	}
	c := &Checkpoint{}
	c.K = int(readU64())
	c.NextIter = int(readU64())
	c.Seed = readU64()
	uRows := int(readU64())
	vRows := int(readU64())
	nTest := int(readU64())
	c.NSamples = int(readU64())
	nTrace := int(readU64())
	c.ItemUpdates = int64(readU64())
	for i := range c.KernelCounts {
		c.KernelCounts[i] = int64(readU64())
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint header: %w", err)
	}
	const maxDim = 1 << 31
	if c.K <= 0 || c.K > 1<<16 || uRows < 0 || uRows > maxDim || vRows < 0 || vRows > maxDim ||
		nTest < 0 || nTest > maxDim || nTrace < 0 || nTrace > 1<<24 ||
		c.NextIter < 0 || c.NSamples < 0 || c.ItemUpdates < 0 {
		return nil, fmt.Errorf("core: implausible checkpoint header (K=%d U=%d V=%d test=%d)",
			c.K, uRows, vRows, nTest)
	}
	// Validate the total element count the header implies before any
	// allocation: a corrupt header must produce an error, not a
	// multi-gigabyte make() — and the products are computed in int64, so a
	// crafted rows*K can never overflow int on 32-bit platforms either.
	// 1<<31 float64 elements = 16 GiB, already beyond any plausible
	// checkpoint; real industrial runs (millions of rows x K <= 1024) stay
	// orders of magnitude below it.
	const maxElems = 1 << 31
	total := int64(uRows)*int64(c.K) + int64(vRows)*int64(c.K) +
		2*int64(nTest) + 2*int64(nTrace)
	if int64(uRows)*int64(c.K) > maxElems || int64(vRows)*int64(c.K) > maxElems || total > maxElems {
		return nil, fmt.Errorf("core: checkpoint header implies %d float64s (K=%d U=%d V=%d test=%d); refusing to allocate",
			total, c.K, uRows, vRows, nTest)
	}
	// readFloats reads a section of n floats into a slice of exactly n.
	// Of a stream of known size it allocates the section once, at n,
	// after checking that the bytes left hold it: a header that promises
	// more than the file holds is refused before anything is allocated.
	// Otherwise it does not trust the header with the allocation: the
	// slice starts at min(n, floatChunk) floats and doubles, up to n, only
	// while the stream keeps filling it. A header that promises more than
	// the stream holds so costs at most one chunk plus four times what the
	// stream delivered before the read error stops it; a whole section
	// costs less than three times its size in allocation and ends with
	// cap == len. Once err is set nothing more is allocated.
	left := size - int64(len(ckptMagic)) - 8*12 // bytes after the header, if size is known
	readFloats := func(n int) []float64 {
		if n == 0 || err != nil {
			return nil
		}
		first := min(n, floatChunk)
		if size >= 0 {
			if int64(n) > left/8 {
				err = fmt.Errorf("section of %d floats, %d bytes left in the file: %w", n, left, io.ErrUnexpectedEOF)
				return nil
			}
			left -= 8 * int64(n)
			first = n
		}
		v := make([]float64, first)
		for read := 0; ; {
			for dst := v[read:]; len(dst) > 0 && err == nil; {
				k := min(len(dst), codecFloats)
				if _, err = io.ReadFull(br, buf[:8*k]); err == nil {
					for i := range dst[:k] {
						dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
					}
				}
				dst = dst[k:]
			}
			if err != nil || len(v) == n {
				return v
			}
			read = len(v)
			grown := make([]float64, min(n, 2*len(v)))
			copy(grown, v)
			v = grown
		}
	}
	c.U = &la.Matrix{Rows: uRows, Cols: c.K, Data: readFloats(uRows * c.K)}
	c.V = &la.Matrix{Rows: vRows, Cols: c.K, Data: readFloats(vRows * c.K)}
	c.PredSum = readFloats(nTest)
	c.PredSumSq = readFloats(nTest)
	c.SampleRMSE = readFloats(nTrace)
	c.AvgRMSE = readFloats(nTrace)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint body: %w", err)
	}
	return c, nil
}
