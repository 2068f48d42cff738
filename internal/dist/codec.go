package dist

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
)

// encodeFloats serializes a float64 slice little-endian.
func encodeFloats(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
	return b
}

// decodeFloatsInto fills dst from an encodeFloats blob.
func decodeFloatsInto(dst []float64, b []byte) {
	if len(b) != 8*len(dst) {
		panic("dist: float blob length mismatch")
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

// interval wire format: 5 float64 per entry (row, col, actual, mean, std).
const intervalRecLen = 5

func encodeIntervals(ivs []core.Interval) []byte {
	v := make([]float64, 0, intervalRecLen*len(ivs))
	for _, iv := range ivs {
		v = append(v, float64(iv.Row), float64(iv.Col), iv.Actual, iv.Mean, iv.Std)
	}
	return encodeFloats(v)
}

func decodeIntervals(b []byte) []core.Interval {
	n := len(b) / (8 * intervalRecLen)
	out := make([]core.Interval, n)
	var v [intervalRecLen]float64
	for t := 0; t < n; t++ {
		decodeFloatsInto(v[:], b[t*8*intervalRecLen:(t+1)*8*intervalRecLen])
		out[t] = core.Interval{
			Row: int32(v[0]), Col: int32(v[1]),
			Actual: v[2], Mean: v[3], Std: v[4],
		}
	}
	return out
}
