//go:build !amd64 || purego

package la

// blockDot32 is BlockDot32's Go body wherever there is no assembly.
func blockDot32(v []float32, x []float64, t []float32, bound, theta float64) uint64 {
	return blockDot32Go(v, x, t, bound, theta)
}
