//go:build amd64 && !purego

package la

// Bodies in kernels_amd64.s. They take lengths from the slice headers and
// check nothing; hasAVX2 is CPUID leaf 7 plus the OS's YMM support (XGETBV).

func hasAVX2() bool

//go:noescape
func syrk4AVX2(alpha float64, x0, x1, x2, x3, a []float64)

//go:noescape
func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)

//go:noescape
func axpy1AVX2(alpha float64, x, y []float64)

//go:noescape
func cholTrailAVX2(l []float64, n, k int)

func init() {
	if hasAVX2() {
		syrk4, axpy4, axpy1, cholTrail = syrk4AVX2, axpy4AVX2, axpy1AVX2, cholTrailAVX2
	}
}
