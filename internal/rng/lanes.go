package rng

import "repro/internal/la"

// fillNormLanes is FillNormLanes' body: fillNormLanesGo, or on amd64 with
// AVX2 the assembly (lanes_amd64.go).
var fillNormLanes = fillNormLanesGo

// FillNormLanes draws the normals of up to four keyed streams at once, one
// stream per lane of la's lane layout: dst holds len(dst)/la.Lanes
// elements per lane, and lane l < n receives the first that many normals
// of New(keys[l]), in FillNorm order (element i of the lane is the stream's
// i-th Norm). Lanes ≥ n are left as they are, and the fill does not wait on
// them. The streams are not handed back: a lane's draw consumes its stream
// as FillNorm would, so only a caller that drops the stream afterwards may
// use it. That is the rank-one item group, whose item streams feed nothing
// but the item's K normals.
//
// On amd64 with AVX2 one xoshiro256** stream runs per 64-bit lane, each
// with its own polar-method rejections and its own spare, and every
// floating-point step is one the scalar Norm performs, in its order
// (lanes_amd64.s), so the lanes hold fillNormLanesGo's bits.
func FillNormLanes(dst []float64, keys [la.Lanes]uint64, n int) {
	if len(dst)%la.Lanes != 0 || n < 0 || n > la.Lanes {
		panic("rng: FillNormLanes dimension mismatch")
	}
	fillNormLanes(dst, keys, n)
}

// fillNormLanesGo is FillNormLanes by definition: per lane, Reinit and
// FillNorm. It is the reference of the AVX2 body and the path elsewhere.
func fillNormLanesGo(dst []float64, keys [la.Lanes]uint64, n int) {
	var r Stream
	for l, key := range keys[:n] {
		r.Reinit(key)
		for i := l; i < len(dst); i += la.Lanes {
			dst[i] = r.Norm()
		}
	}
}
