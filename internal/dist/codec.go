package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/la"
)

// codec.go holds every byte layout the engine puts on the fabric. The
// decoders take bytes a peer sent: what they cannot make sense of is an
// error for Run to return, never a panic.

// interval wire format: 5 float64 per entry (row, col, actual, mean, std),
// row and col being the entry's position as whole non-negative numbers.
const intervalRecLen = 5

func encodeIntervals(ivs []core.Interval) []byte {
	v := make([]float64, 0, intervalRecLen*len(ivs))
	for _, iv := range ivs {
		v = append(v, float64(iv.Row), float64(iv.Col), iv.Actual, iv.Mean, iv.Std)
	}
	return comm.EncodeFloat64s(v)
}

func decodeIntervals(b []byte) ([]core.Interval, error) {
	const recBytes = 8 * intervalRecLen
	if len(b)%recBytes != 0 {
		return nil, fmt.Errorf("interval blob of %d bytes is not a whole number of %d-byte records", len(b), recBytes)
	}
	out := make([]core.Interval, len(b)/recBytes)
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) }
	for t := range out {
		o := t * intervalRecLen
		row, col := f(o), f(o+1)
		if !isIndex(row) || !isIndex(col) {
			return nil, fmt.Errorf("interval %d sits at (%v, %v), not a matrix position", t, row, col)
		}
		out[t] = core.Interval{
			Row: int32(row), Col: int32(col),
			Actual: f(o + 2), Mean: f(o + 3), Std: f(o + 4),
		}
	}
	return out, nil
}

// isIndex reports whether x is a float encodeIntervals writes for a
// position: a whole number in [0, MaxInt32] (not NaN, not -0), so the
// conversion to int32 is defined and loses nothing.
func isIndex(x float64) bool {
	return !math.Signbit(x) && x <= math.MaxInt32 && x == math.Trunc(x)
}

// ghost wire format: one record per updated item row — u32 item index in
// plan space, then its K float64 — little-endian; a frame is a whole
// number of records (the coalescers never split one).

// ghostRecLen is the size of one ghost record of a K-factor model.
func ghostRecLen(k int) int { return 4 + 8*k }

// encodeGhost fills rec (ghostRecLen(len(row)) bytes) with item's row.
func encodeGhost(rec []byte, item int, row []float64) {
	binary.LittleEndian.PutUint32(rec, uint32(item))
	for i, x := range row {
		binary.LittleEndian.PutUint64(rec[4+8*i:], math.Float64bits(x))
	}
}

// decodeGhosts applies one received ghost frame to the replica dst and
// returns the number of rows written. owner maps every item of the side
// to its owning rank; a frame from rank src may only carry rows src
// owns, so a corrupt or misrouted frame can neither index outside dst
// nor overwrite a row another rank (this one included) samples.
func decodeGhosts(dst *la.Matrix, owner []int32, src int, data []byte) (int, error) {
	recLen := ghostRecLen(dst.Cols)
	if len(data)%recLen != 0 {
		return 0, fmt.Errorf("dist: ghost frame from rank %d: %d bytes is not a whole number of %d-byte records",
			src, len(data), recLen)
	}
	n := 0
	for off := 0; off < len(data); off += recLen {
		idx := int(binary.LittleEndian.Uint32(data[off:]))
		if idx >= dst.Rows {
			return n, fmt.Errorf("dist: ghost frame from rank %d: item %d outside the side's %d items", src, idx, dst.Rows)
		}
		if int(owner[idx]) != src {
			return n, fmt.Errorf("dist: ghost frame from rank %d: item %d is owned by rank %d", src, idx, owner[idx])
		}
		row := dst.Row(idx)
		for i := range row {
			row[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+4+8*i:]))
		}
		n++
	}
	return n, nil
}
