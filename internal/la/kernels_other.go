//go:build !amd64 || purego

package la

// blockDot8 is BlockDot8's Go body wherever there is no assembly.
func blockDot8(v []int8, x []int16, t []int32, thr int32) uint64 {
	return blockDot8Go(v, x, t, thr)
}
