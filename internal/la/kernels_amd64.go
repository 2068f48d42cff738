//go:build amd64 && !purego

package la

// Bodies in kernels_amd64.s and kernels_avx512_amd64.s. They take lengths
// from the slice headers and check nothing; cpuFeatures is CPUID leaves 1
// and 7 plus the register state the OS saves (XGETBV).

func cpuFeatures() (avx2, avx512 bool)

//go:noescape
func syrk4AVX2(alpha float64, x0, x1, x2, x3, a []float64)

//go:noescape
func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

//go:noescape
func axpy1AVX2(alpha float64, x, y []float64)

//go:noescape
func syrk4AVX512(alpha float64, x0, x1, x2, x3, a []float64)

//go:noescape
func axpy4AVX512(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

//go:noescape
func axpy1AVX512(alpha float64, x, y []float64)

//go:noescape
func dot4AVX2(a []float64, k int, x []float64) (s0, s1, s2, s3 float64)

//go:noescape
func blockDot8AVX2(v []int8, x []int16, t []int32, thr int32) uint64

// blockDot8 dispatches by a direct call, not through a variable as the
// primitives in kernels.go do: an operand passed to a function value
// escapes, and a ranking keeps its query and sums on its stack.
func blockDot8(v []int8, x []int16, t []int32, thr int32) uint64 {
	if HasAVX2 {
		return blockDot8AVX2(v, x, t, thr)
	}
	return blockDot8Go(v, x, t, thr)
}

//go:noescape
func cholUpdate4AVX2(u, from, x []float64, k int, nr [4]int)

//go:noescape
func solveUpperT4AVX2(u, y []float64, k int)

//go:noescape
func solveUpperPair4AVX2(u, a, b []float64, k int)

//go:noescape
func packLower4AVX2(dst, a0, a1, a2, a3 []float64, k int)

//go:noescape
func cholesky4AVX2(a []float64, k int) (bad int)

func init() {
	HasAVX2, HasAVX512 = cpuFeatures()
	denseSets = []denseSet{
		{"avx2", HasAVX2, syrk4AVX2, axpy4AVX2, axpy1AVX2},
		{"avx512", HasAVX512, syrk4AVX512, axpy4AVX512, axpy1AVX512},
	}
	for _, s := range denseSets {
		if s.ok {
			syrk4, axpy4, axpy1 = s.syrk4, s.axpy4, s.axpy1
		}
	}
	if HasAVX2 {
		dot4, cholUpdate4, solveUpperT4, solveUpperPair4 = dot4AVX2, cholUpdate4AVX2, solveUpperT4AVX2, solveUpperPair4AVX2
		packLower4, cholesky4 = packLower4AVX2, cholesky4AVX2
	}
}
