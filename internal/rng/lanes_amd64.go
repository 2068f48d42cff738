//go:build amd64 && !purego

package rng

import "repro/internal/la"

// laneState is the AVX2 fill's start: word w of lane l's xoshiro state at
// s[w][l], and the normals lane l has written, 0 or, for a lane that draws
// nothing, the per-lane length.
type laneState struct {
	s [4][la.Lanes]uint64
	n [la.Lanes]int64
}

// fillNormLanesAVX2 is in lanes_amd64.s. It checks nothing and writes
// nothing outside dst.
//
//go:noescape
func fillNormLanesAVX2(dst []float64, st *laneState)

// log4AVX2 is the fill's logarithm alone, on four positive normal values
// in place (lanes_amd64.s); the tests hold it to log.
//
//go:noescape
func log4AVX2(x *[la.Lanes]float64)

func init() {
	if la.HasAVX2 {
		fillNormLanes = fillNormLanes4
	}
}

// fillNormLanes4 keys the lanes' streams with Reinit and runs the AVX2
// polar loop on them.
func fillNormLanes4(dst []float64, keys [la.Lanes]uint64, n int) {
	var st laneState
	var r Stream
	for l := range la.Lanes {
		if l < n {
			r.Reinit(keys[l])
		} else {
			st.n[l] = int64(len(dst) / la.Lanes)
		}
		for w, x := range r.s {
			st.s[w][l] = x
		}
	}
	fillNormLanesAVX2(dst, &st)
}
