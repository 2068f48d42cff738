package core

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// checkLaneOrder asserts that a side walks its lane order: within each
// moment group a permutation of the group, the serial-Cholesky items
// first, then the parallel-Cholesky items, each in storage order, then the
// rank-one items by non-decreasing degree, in storage order within a
// degree.
func checkLaneOrder(t *testing.T, name string, s *Sampler, side Side) {
	t.Helper()
	ord, n := s.Order(side)
	_, _, ratings, _ := s.Side(side)
	groups := s.Cfg.MomentGroupsU
	if side == SideV {
		groups = s.Cfg.MomentGroupsV
	}
	if len(ord) != n {
		t.Fatalf("%s side %d: order has %d positions for %d items", name, side, len(ord), n)
	}
	// key orders the lane order strictly: kernel class, then degree (0
	// for every Cholesky-kernel item), then storage order.
	key := func(item int) [3]int {
		d := ratings.RowNNZ(item)
		switch s.Cfg.SelectKernel(d) {
		case KernelCholesky:
			return [3]int{0, 0, item}
		case KernelParallelCholesky:
			return [3]int{1, 0, item}
		}
		return [3]int{2, d, item}
	}
	less := func(a, b [3]int) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	bounds := GroupBoundaries(groups, n)
	for g := 0; g+1 < len(bounds); g++ {
		lo, hi := bounds[g], bounds[g+1]
		for pos := lo; pos < hi; pos++ {
			item := int(ord[pos])
			if item < lo || item >= hi {
				t.Fatalf("%s side %d: position %d of moment group [%d, %d) holds item %d from outside it",
					name, side, pos, lo, hi, item)
			}
			if pos > lo && !less(key(int(ord[pos-1])), key(item)) {
				t.Fatalf("%s side %d: positions %d, %d hold items %v then %v (class, degree, id): not the lane order",
					name, side, pos-1, pos, key(int(ord[pos-1])), key(item))
			}
		}
	}
}

// TestLaneOrderProperty: samplers from NewSampler and ResumeSamplerGrown,
// at the checkpoint's shape and grown (the new users join the order),
// walk the lane order on every side, moment group by moment group —
// including an empty group.
func TestLaneOrderProperty(t *testing.T) {
	prob := ckptProblem(t)
	cfg := ckptConfig()
	m, n := prob.Dims()
	cfg.MomentGroupsU = []int{0, m / 3, m / 3, m}
	cfg.MomentGroupsV = []int{0, n / 2, n}

	fresh, err := NewSampler(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := ckptAfter(t, cfg, prob, 2)
	resumed, err := ResumeSamplerGrown(cfg, prob, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	const extra = 9
	grownProb := grownProblem(t, prob, extra)
	grownCfg := cfg
	grownCfg.MomentGroupsU = []int{0, m / 3, m + extra}
	grown, err := ResumeSamplerGrown(grownCfg, grownProb, ckpt)
	if err != nil {
		t.Fatal(err)
	}

	kinds := map[Kernel]int{}
	for _, c := range []struct {
		name string
		s    *Sampler
	}{{"NewSampler", fresh}, {"ResumeSamplerGrown", resumed}, {"ResumeSamplerGrown/grown", grown}} {
		for _, side := range []Side{SideU, SideV} {
			checkLaneOrder(t, c.name, c.s, side)
			ord, _ := c.s.Order(side)
			_, _, ratings, _ := c.s.Side(side)
			for _, it := range ord {
				kinds[c.s.Cfg.SelectKernel(ratings.RowNNZ(int(it)))]++
			}
		}
	}
	if len(kinds) != int(numKernels) {
		t.Fatalf("the problem must mix the three kernels' items, got %v", kinds)
	}
	ord, _ := grown.Order(SideU)
	newUsers := 0
	for _, it := range ord {
		if int(it) >= m {
			newUsers++
		}
	}
	if newUsers != extra {
		t.Fatalf("grown sampler's U order holds %d of the %d grown users", newUsers, extra)
	}
}

// laneCount is what UpdateRange's group rule makes of one sweep's ranges
// for the items of one grouped kernel: within a range they go in range
// order in lane groups of la.Lanes, a group drawn when full, a
// serial-Cholesky group also before a parallel-Cholesky item, and at the
// range's end.
type laneCount struct {
	items, groups int // the kernel's items and the lane groups drawing them
	ratings       int // their ratings
	slots         int // Σ over groups of the heaviest lane's degree: the chain the group runs
	passes        int // Σ over groups of its factor-update passes, ⌈heaviest degree / 4⌉
	lanePasses    int // Σ over items of ⌈degree / 4⌉: the passes a full group divides by four
}

func countLanes(cfg *Config, ratings *sparse.CSR, ord []int32, ranges [][2]int, kern Kernel) laneCount {
	var c laneCount
	var degs []int // the open group's degrees
	draw := func() {
		if len(degs) == 0 {
			return
		}
		top := slices.Max(degs)
		c.groups++
		c.slots += top
		c.passes += (top + la.Lanes - 1) / la.Lanes
		degs = degs[:0]
	}
	for _, r := range ranges {
		for _, item := range ord[r[0]:r[1]] {
			d := ratings.RowNNZ(int(item))
			switch cfg.SelectKernel(d) {
			case kern:
				c.items++
				c.ratings += d
				c.lanePasses += (d + la.Lanes - 1) / la.Lanes
				if degs = append(degs, d); len(degs) == la.Lanes {
					draw()
				}
			case KernelParallelCholesky:
				if kern == KernelCholesky {
					draw()
				}
			}
		}
		draw()
	}
	return c
}

// occupancy is the share of lanes that draw an item.
func (c laneCount) occupancy() float64 {
	if c.groups == 0 {
		return 1
	}
	return float64(c.items) / float64(la.Lanes*c.groups)
}

// idealSlots and idealPasses are the chain and the passes of the rank-one
// ratings spread evenly over full lane groups.
func (c laneCount) idealSlots() int  { return (c.ratings + la.Lanes - 1) / la.Lanes }
func (c laneCount) idealPasses() int { return (c.lanePasses + la.Lanes - 1) / la.Lanes }

// parallelForRanges records the ranges a real ParallelFor at ItemGrain
// hands a work-stealing sweep of n positions (mc.WorkSteal), by position.
func parallelForRanges(n int) [][2]int {
	pool := sched.NewPool(2)
	defer pool.Close()
	var mu sync.Mutex
	var ranges [][2]int
	pool.ParallelFor(0, n, ItemGrain, func(_ *sched.Worker, lo, hi int) {
		mu.Lock()
		ranges = append(ranges, [2]int{lo, hi})
		mu.Unlock()
	})
	sort.Slice(ranges, func(a, b int) bool { return ranges[a][0] < ranges[b][0] })
	return ranges
}

// wholeRanges are the ranges between consecutive bounds, each one
// UpdateRange call: mc.Static's chunks.
func wholeRanges(bounds []int) [][2]int {
	var ranges [][2]int
	for r := 0; r+1 < len(bounds); r++ {
		ranges = append(ranges, [2]int{bounds[r], bounds[r+1]})
	}
	return ranges
}

// grainRanges are the ranges between consecutive bounds cut every
// ItemGrain positions, each one UpdateRange call: a one-thread distributed
// rank's sweep over each rank's owned range.
func grainRanges(bounds []int) [][2]int {
	var ranges [][2]int
	for r := 0; r+1 < len(bounds); r++ {
		for a := bounds[r]; a < bounds[r+1]; a += ItemGrain {
			ranges = append(ranges, [2]int{a, min(a+ItemGrain, bounds[r+1])})
		}
	}
	return ranges
}

// TestLaneCounters counts, without timing anything, how full the lane
// groups of a sweep are and how long the rank-one groups' chains run, on
// the walks the engines make over the lane order: a work-stealing sweep
// (mc.WorkSteal and the trainer, the ranges of a real ParallelFor), a
// static split over two threads (mc.Static, one range per thread, whose
// second need not start on a grain multiple), and a one-thread distributed
// rank's ItemGrain loop over its owned range (two ranks, moment groups
// from the plan). On a side that is mostly rank-one, every walk fills
// ≥ 99 % of the lanes and its chains run within 2 % of the ratings spread
// evenly over full groups; on a side that is mostly Cholesky-kernel
// items (both sides of the train-dense-mc shape, whose movies hold
// parallel-Cholesky items too), every walk fills ≥ 99 % of the lanes of
// the serial-Cholesky groups.
func TestLaneCounters(t *testing.T) {
	const none = numKernels // a side not mostly of one grouped kernel
	for _, c := range []struct {
		name   string
		spec   datagen.Spec
		mostly [2]Kernel // what each side, U and V, is mostly
	}{
		{"chembl×0.02", datagen.Scaled(datagen.ChEMBL(1), 0.02), [2]Kernel{KernelRankOne, none}},
		{"wide", datagen.Spec{Name: "wide", Rows: 2000, Cols: 12500, NNZ: 100000,
			TrueRank: 16, NoiseSD: 0.5, ZipfS: 1.0, MinVal: 0.5, MaxVal: 5, Seed: 1}, [2]Kernel{none, KernelRankOne}},
		{"ml-20m×0.03", datagen.Scaled(datagen.ML20M(1), 0.03), [2]Kernel{KernelCholesky, KernelCholesky}},
	} {
		prob := NewProblem(sparse.SplitTrainTest(datagen.Generate(c.spec).R, 0.2, 1))
		cfg := DefaultConfig()
		cfg.K = 2 // the order does not depend on K
		trainer, err := NewSampler(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		plan := partition.Build(prob.R, 2)
		distCfg := cfg
		distCfg.MomentGroupsU, distCfg.MomentGroupsV = plan.RowBounds, plan.ColBounds
		rank, err := NewSampler(distCfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []Side{SideU, SideV} {
			_, _, ratings, _ := trainer.Side(side)
			trainerOrd, n := trainer.Order(side)
			rankOrd, _ := rank.Order(side)
			bounds := plan.RowBounds
			if side == SideV {
				bounds = plan.ColBounds
			}
			for _, w := range []struct {
				walk   string
				ord    []int32
				ranges [][2]int
			}{
				{"worksteal", trainerOrd, parallelForRanges(n)},
				{"static", trainerOrd, wholeRanges(sched.StaticChunks(2, 0, n))},
				{"dist", rankOrd, grainRanges(bounds)},
			} {
				k := countLanes(&cfg, ratings, w.ord, w.ranges, KernelRankOne)
				ch := countLanes(&cfg, ratings, w.ord, w.ranges, KernelCholesky)
				t.Logf("%s side %d %s: %d rank-one items, occupancy %.3f, passes %d (ideal %d), chain slots %d (ideal %d); %d serial-Cholesky items, occupancy %.3f",
					c.name, side, w.walk, k.items, k.occupancy(), k.passes, k.idealPasses(), k.slots, k.idealSlots(),
					ch.items, ch.occupancy())
				switch c.mostly[side] {
				case KernelCholesky:
					if ch.occupancy() < 0.99 {
						t.Errorf("%s side %d %s: Cholesky lane occupancy %.4f, want ≥ 0.99", c.name, side, w.walk, ch.occupancy())
					}
				case KernelRankOne:
					if k.occupancy() < 0.99 {
						t.Errorf("%s side %d %s: lane occupancy %.4f, want ≥ 0.99", c.name, side, w.walk, k.occupancy())
					}
					if float64(k.slots) > 1.02*float64(k.idealSlots()) {
						t.Errorf("%s side %d %s: %d chain slots, more than 2 %% over the ideal %d",
							c.name, side, w.walk, k.slots, k.idealSlots())
					}
				}
			}
		}
	}
}
