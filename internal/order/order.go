// Package order builds a locality schedule for the Gibbs iteration's two
// phases: Reverse-Cuthill–McKee ordering (package partition's bandwidth
// reducer) places items that share raters next to each other, and
// optional degree binning lifts the heavy items (>= HeavyThreshold
// ratings) to the front in descending degree order.
//
// No engine walks this schedule: every engine walks the sampler's lane
// order (core.Sampler.Order), and PERF.md measured the locality schedule
// never paying back its own Build. The package stays only because the
// benchmark times Build as its order.build_s layer metric; ROADMAP item 5
// deletes the package along with that metric.
package order

import (
	"sort"

	"repro/internal/partition"
	"repro/internal/sparse"
)

// Schedule holds one processing order per Gibbs phase. V[pos] is the movie
// (column item) updated at position pos of the movie phase; U[pos] the user
// updated at position pos of the user phase. Both are permutations of
// their full index ranges.
type Schedule struct {
	U, V []int32
}

// Options configures Build.
type Options struct {
	// HeavyThreshold places items with at least this many ratings in the
	// leading heavy bin, descending by degree (the hybrid kernel
	// threshold, Config.KernelThreshold, for a work-stealing walk). <= 0
	// disables binning and keeps the pure RCM order.
	HeavyThreshold int
}

// Build computes the locality schedule of a rating matrix (users are rows,
// movies are columns). It is deterministic in r.
func Build(r *sparse.CSR, opt Options) *Schedule {
	rowPerm, colPerm := partition.RCMPerms(r)
	rowDeg := r.RowDegrees()
	colDeg := make([]int, r.N)
	for _, c := range r.Col {
		colDeg[c]++
	}
	return &Schedule{
		U: binHeavyFirst(rowPerm, rowDeg, opt.HeavyThreshold),
		V: binHeavyFirst(colPerm, colDeg, opt.HeavyThreshold),
	}
}

// binHeavyFirst reorders perm in place: items with deg >= threshold move to
// the front in descending degree (ties keep their RCM relative order), the
// rest keep the RCM order. threshold <= 0 returns perm unchanged.
func binHeavyFirst(perm []int32, deg []int, threshold int) []int32 {
	if threshold <= 0 {
		return perm
	}
	heavy := perm[:0:0]
	light := make([]int32, 0, len(perm))
	for _, it := range perm {
		if deg[it] >= threshold {
			heavy = append(heavy, it)
		} else {
			light = append(light, it)
		}
	}
	sort.SliceStable(heavy, func(a, b int) bool { return deg[heavy[a]] > deg[heavy[b]] })
	out := perm[:0]
	out = append(out, heavy...)
	out = append(out, light...)
	return out
}
