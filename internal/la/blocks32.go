package la

import (
	"fmt"
	"math"
)

// Block32 is the item count of one block of the float32 layout that
// BlockDot32 streams: a matrix's rows in blocks of Block32, column-major
// inside a block, so column c of a block is Block32 consecutive float32s,
// one per row — one AVX2 register.
const Block32 = 8

// PackBlocks32 returns a's rows rounded to float32 in BlockDot32's layout:
// element (i, c) at (i/Block32)·Block32·Cols + c·Block32 + i%Block32, the
// rows of the last block past a.Rows zero. It is half the bytes of a, so
// a scan over it reads memory at half the cost per row.
func PackBlocks32(a *Matrix) []float32 {
	k := a.Cols
	blocks := (a.Rows + Block32 - 1) / Block32
	out := make([]float32, blocks*Block32*k)
	for i := 0; i < a.Rows; i++ {
		blk := out[(i/Block32)*Block32*k:]
		for c, x := range a.Row(i) {
			blk[c*Block32+i%Block32] = float32(x)
		}
	}
	return out
}

// BlockDot32 sets t[j] to the float32 inner product of float32(x) with row
// j of the packed rows blocks (PackBlocks32's layout, len(x) columns), for
// the len(t)/Block32 ≤ 64/Block32 blocks at the start of blocks. Each row
// is one float32 chain from +0 in ascending column order, every step a
// rounded product then a rounded add, so t[j] is the same bits on every
// body and every GOARCH.
//
// It returns the rows a caller keeping scores above theta must not rule
// out: bit j is clear only when t[j] > −Inf and float64(t[j]) + bound <
// theta, in float64, and set for a NaN t[j], a NaN bound or a NaN theta.
// With bound at least the largest |t[j] − x·row j| (package rank derives
// one), a clear bit proves row j's exact inner product below theta. It
// allocates nothing and keeps no operand.
func BlockDot32(blocks []float32, x Vector, t []float32, bound, theta float64) uint64 {
	if len(t)%Block32 != 0 || len(t) > 64 || len(blocks) < len(t)*len(x) {
		panic(fmt.Sprintf("la: BlockDot32 on %d floats, %d columns, %d outputs", len(blocks), len(x), len(t)))
	}
	return blockDot32(blocks[:len(t)*len(x)], x, t, bound, theta)
}

// blockDot32Go is BlockDot32's body: block by block, eight chains, one per
// row, each s_r ← s_r + float32(v_rc·float32(x_c)) for c ascending, then
// the rule row by row. The explicit float32 conversion keeps arm64 from
// fusing the product into the sum.
func blockDot32Go(v []float32, x []float64, t []float32, bound, theta float64) (keep uint64) {
	k := len(x)
	for b := 0; b < len(t)/Block32; b++ {
		blk := v[b*Block32*k : (b+1)*Block32*k]
		var s [Block32]float32
		for c, xc := range x {
			f := float32(xc)
			col := blk[c*Block32 : (c+1)*Block32]
			for r := range s {
				s[r] += float32(col[r] * f)
			}
		}
		copy(t[b*Block32:(b+1)*Block32], s[:])
	}
	for j, tj := range t {
		if !(tj > float32(math.Inf(-1)) && float64(tj)+bound < theta) {
			keep |= 1 << j
		}
	}
	return keep
}
