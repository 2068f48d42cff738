package la

import (
	"fmt"
	"math"
	"math/bits"
)

// Block8 is the item count of one block of the int8 layout that BlockDot8
// streams: a matrix's rows in blocks of Block8, and inside a block one
// 16-byte group per column pair (2p, 2p+1) holding row r's two values at
// bytes 2r and 2r+1 — one VPMOVSXBW load, one VPMADDWD against the pair
// of x. An odd column count pads one zero column.
const Block8 = 8

// absMask clears a float64's sign bit: for finite values the bit patterns
// so masked order as the magnitudes do, and NaN and ±Inf sit above
// every finite one.
const absMask = 1<<63 - 1

// round is x rounded half to even to an integer, for |x| < 2⁵¹, in the
// low bits of the result: adding 1.5·2⁵² leaves one unit in the last place,
// so the add itself rounds and the integer is the mantissa's low bits.
// Callers pass a product as float64(y*inv), the explicit conversion that
// keeps arm64 from fusing it into the add.
func round(x float64) uint64 {
	return math.Float64bits(x + 0x1.8p52)
}

// Pairs returns the column pairs of a k-column int8 layout, ⌈k/2⌉: a
// block is 16·Pairs(k) bytes and BlockDot8's x holds 2·Pairs(k) values.
func Pairs(k int) int { return (k + 1) / 2 }

// PackBlocks8 returns a's rows quantised to int8 in BlockDot8's layout:
// element (i, c) at (i/Block8)·Block8·2P + (c/2)·2·Block8 + 2·(i%Block8) +
// c%2, P = Pairs(a.Cols), the padding column and the rows of the last block
// past a.Rows zero. With s = 2^exp the smallest power of two at least
// max_ic |a_ic|/127 (and at least 2⁻¹⁰²², so 1/s is finite), element (i, c)
// is q_ic = round(a_ic/s), half to even, so |q_ic| ≤ 127 and
// |a_ic − s·q_ic| ≤ s/2; l1 is max_i Σ_c |q_ic|. It is an eighth of the
// bytes of a. A NaN or an infinity in a builds nothing: blocks is nil.
func PackBlocks8(a *Matrix) (blocks []int8, exp, l1 int) {
	m := maxAbsBits(a.Data)
	if m >= 0x7ff<<52 {
		return nil, 0, 0
	}
	exp = scaleExp(math.Float64frombits(m), 127)
	inv := math.Ldexp(1, -exp)           // exact: exp lies in [−1022, 1018]
	stride := Block8 * 2 * Pairs(a.Cols) // bytes per block
	n := (a.Rows + Block8 - 1) / Block8 * stride
	blocks = make([]int8, n)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		o := (i/Block8)*stride + 2*(i%Block8) // pair 0 of row i
		var sum int32
		for c := 1; c < len(row); c += 2 {
			q0, q1 := int8(round(float64(row[c-1]*inv))), int8(round(float64(row[c]*inv)))
			blocks[o+1], blocks[o] = q1, q0
			sum += abs8(q0) + abs8(q1)
			o += 2 * Block8
		}
		if len(row)%2 == 1 {
			q0 := int8(round(float64(row[len(row)-1] * inv)))
			blocks[o] = q0
			sum += abs8(q0)
		}
		l1 = max(l1, int(sum))
	}
	return blocks, exp, l1
}

// maxAbsBits is the largest of x's bit patterns with the sign cleared:
// that of the largest magnitude, or of a NaN or an infinity if x holds one
// (at least 0x7ff<<52). The compare is a branch, not a conditional move:
// the maximum rises a few times in a scan, so the branch predicts and
// each element costs a load, a mask and a compare.
func maxAbsBits(x []float64) uint64 {
	var m uint64
	for _, v := range x {
		if b := math.Float64bits(v) & absMask; b > m {
			m = b
		}
	}
	return m
}

// abs8 is |q| without a branch: a lookup by q's byte.
func abs8(q int8) int32 { return int32(absTab[uint8(q)]) }

// absTab[b] is |int8(b)|.
var absTab = func() (t [256]uint8) {
	for b := range t {
		t[b] = uint8(max(int8(b), -int8(b)))
	}
	return t
}()

// scaleExp returns the smallest e ≥ −1022 with r·2^e ≥ m, for a finite
// m ≥ 0 and 1 ≤ r < 2¹⁵: m = f·2^x with f in [½, 1), and r·2^(x−L), L the
// bit length of r, lies in [2^(x−1), 2^x), as m does, so e is x − L or the
// next.
func scaleExp(m float64, r int) int {
	if m == 0 {
		return -1022
	}
	_, x := math.Frexp(m)
	e := x - bits.Len(uint(r))
	if math.Ldexp(float64(r), e) < m {
		e++
	}
	return max(e, -1022)
}

// QueryRange is R for k columns, the largest |x_c| BlockDot8 accepts:
// min(32767, ⌊(2³¹−1)/(127·k)⌋), so that no int32 sum of k products with
// |q| ≤ 127 can overflow; 0 past k = 2¹⁶.
func QueryRange(k int) int {
	if k > 1<<16 {
		return 0
	}
	return min(32767, (1<<31-1)/(127*max(k, 1)))
}

// PackQuery16 quantises x for BlockDot8 into dst[:2·Pairs(len(x))]: with
// s = 2^exp the smallest power of two at least max_c |x_c|/R, R =
// QueryRange(len(x)) (and at least 2⁻¹⁰²²), dst[c] = round(x_c/s), half
// to even, so |dst[c]| ≤ R and |x_c − s·dst[c]| ≤ s/2, and the padding
// column is zero; l1 is Σ_c |dst[c]|. ok is false, and dst is not
// written, when x holds a NaN or an infinity or R is 0.
func PackQuery16(x Vector, dst []int16) (exp, l1 int, ok bool) {
	r, m := QueryRange(len(x)), maxAbsBits(x)
	if m >= 0x7ff<<52 || r == 0 {
		return 0, 0, false
	}
	exp = scaleExp(math.Float64frombits(m), r)
	inv := math.Ldexp(1, -exp)
	dst = dst[:2*Pairs(len(x))]
	for c, v := range x {
		q := int32(int16(round(float64(v * inv))))
		dst[c] = int16(q)
		l1 += int(max(q, -q))
	}
	if len(x)%2 == 1 {
		dst[len(x)] = 0
	}
	return exp, l1, true
}

// BlockDot8 sets t[j] to the int32 inner product D_j = Σ_c x_c·q_jc of x
// with row j of the packed rows blocks (PackBlocks8's layout, len(x)/2
// column pairs, x padded as PackQuery16 pads it), for the len(t)/Block8 ≤
// 64/Block8 blocks at the start of blocks. With |x_c| ≤ QueryRange(k) the
// sums are exact, so t is the same integers on every body and every
// GOARCH.
//
// It returns the rows a caller must not skip: bit j is set iff t[j] > thr.
// So thr = math.MinInt32 keeps every row an exact sum can give and
// math.MaxInt32 keeps none. It allocates nothing and keeps no operand.
func BlockDot8(blocks []int8, x []int16, t []int32, thr int32) uint64 {
	if len(t)%Block8 != 0 || len(t) > 64 || len(x)%2 != 0 || len(blocks) < len(t)*len(x) {
		panic(fmt.Sprintf("la: BlockDot8 on %d bytes, %d columns, %d outputs", len(blocks), len(x), len(t)))
	}
	return blockDot8(blocks[:len(t)*len(x)], x, t, thr)
}

// blockDot8Go is BlockDot8's body: block by block, eight sums, one per
// row, each s_r ← s_r + x_2p·q_r,2p + x_2p+1·q_r,2p+1 for p ascending (the
// order does not matter: integer sums are exact), then the rule row by
// row.
func blockDot8Go(v []int8, x []int16, t []int32, thr int32) (keep uint64) {
	k := len(x)
	for b := 0; b < len(t)/Block8; b++ {
		blk := v[b*Block8*k : (b+1)*Block8*k]
		var s0, s1, s2, s3, s4, s5, s6, s7 int32
		for p := 0; p+1 < k; p += 2 {
			x0, x1 := int32(x[p]), int32(x[p+1])
			q := (*[2 * Block8]int8)(blk[p*Block8:])
			s0 += x0*int32(q[0]) + x1*int32(q[1])
			s1 += x0*int32(q[2]) + x1*int32(q[3])
			s2 += x0*int32(q[4]) + x1*int32(q[5])
			s3 += x0*int32(q[6]) + x1*int32(q[7])
			s4 += x0*int32(q[8]) + x1*int32(q[9])
			s5 += x0*int32(q[10]) + x1*int32(q[11])
			s6 += x0*int32(q[12]) + x1*int32(q[13])
			s7 += x0*int32(q[14]) + x1*int32(q[15])
		}
		*(*[Block8]int32)(t[b*Block8:]) = [Block8]int32{s0, s1, s2, s3, s4, s5, s6, s7}
	}
	for j, tj := range t {
		if tj > thr {
			keep |= 1 << j
		}
	}
	return keep
}
