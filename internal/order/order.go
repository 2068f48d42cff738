// Package order builds cache-aware item processing orders for the Gibbs
// iteration's two phases. Within a phase every item update is independent
// — it reads only the partner side's factor matrix (fixed for the phase)
// and its own keyed random stream — so engines may walk the items in any
// order without changing a single sampled bit. That freedom is worth
// using: an item's update gathers one partner row per rating, and at
// ml-20m scale those rows live in a multi-hundred-MB matrix, so walking
// items in storage order turns the batched syrk kernels into a random
// walk over DRAM. A locality schedule instead places items whose rating
// sets overlap next to each other, so consecutive updates re-touch
// partner rows that are still cache-resident.
//
// The order is built once per run from the rating graph:
//
//  1. Reverse-Cuthill–McKee ordering (package partition's bandwidth
//     reducer, the same machinery Section IV-B uses to make contiguous
//     distributed partitions communication-light) clusters items that
//     share raters.
//  2. Degree binning (optional) lifts the heavy items (>= HeavyThreshold
//     ratings, the parallel-kernel class) to the front in descending
//     degree order: the longest tasks start first, so a work-stealing
//     pool never discovers a 10⁵-rating straggler with an otherwise
//     empty queue, and the remaining light items keep their RCM
//     locality. This is strictly a work-stealing property — an engine
//     that splits positions into contiguous per-thread chunks
//     (OpenMP-style static, GraphLab supersteps) would hand the entire
//     heavy bin to its first thread, so those engines build with
//     HeavyThreshold 0 and keep the pure RCM order.
//
// The distributed engine restricts a schedule to each rank's owned range
// with Restrict; the restriction preserves both properties.
package order

import (
	"fmt"
	"sort"

	"repro/internal/partition"
	"repro/internal/sparse"
)

// Schedule holds one processing order per Gibbs phase. V[pos] is the movie
// (column item) updated at position pos of the movie phase; U[pos] the user
// updated at position pos of the user phase. Both are permutations of
// their full index ranges; a nil order means the sampler's own lane order
// (core.Sampler.Order: kernel class, then degree, within each moment
// group).
type Schedule struct {
	U, V []int32
}

// Options configures Build.
type Options struct {
	// HeavyThreshold places items with at least this many ratings in the
	// leading heavy bin, descending by degree (work-stealing engines pass
	// the hybrid kernel threshold, Config.KernelThreshold). <= 0 disables
	// binning and keeps the pure RCM order — required for engines that
	// split positions into contiguous per-thread chunks, which would
	// otherwise hand every heavy item to one thread.
	HeavyThreshold int
}

// Build computes the locality schedule of a rating matrix (users are rows,
// movies are columns). It is deterministic in r, so every rank of a
// distributed run derives the identical schedule locally.
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

// Restrict returns the subsequence of ord whose items lie in [lo, hi),
// preserving their relative order: the locality schedule of one rank's
// owned range. A nil ord yields the identity order of [lo, hi).
func Restrict(ord []int32, lo, hi int) []int32 {
	if hi <= lo {
		return nil
	}
	if ord == nil {
		out := make([]int32, hi-lo)
		for i := range out {
			out[i] = int32(lo + i)
		}
		return out
	}
	out := make([]int32, 0, hi-lo)
	for _, it := range ord {
		if int(it) >= lo && int(it) < hi {
			out = append(out, it)
		}
	}
	return out
}

// Validate checks the schedule contract against an m-user, n-movie
// problem: every non-nil side must be a permutation of its index range.
// An order that skips or repeats items would silently skip some updates
// and perform others twice — and in the distributed engine, whose peers
// count the ghost rows they expect from the routing table, block forever
// on the missing ones.
func (s Schedule) Validate(m, n int) error {
	if s.U != nil && !IsPermutation(s.U, m) {
		return fmt.Errorf("order: schedule U order is not a permutation of [0,%d)", m)
	}
	if s.V != nil && !IsPermutation(s.V, n) {
		return fmt.Errorf("order: schedule V order is not a permutation of [0,%d)", n)
	}
	return nil
}

// IsPermutation reports whether ord is a permutation of [0, n) — the
// schedule contract engines rely on (each item updated exactly once).
func IsPermutation(ord []int32, n int) bool {
	if len(ord) != n {
		return false
	}
	seen := make([]bool, n)
	for _, it := range ord {
		if it < 0 || int(it) >= n || seen[it] {
			return false
		}
		seen[it] = true
	}
	return true
}
