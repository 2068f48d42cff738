// Package des is the discrete-event performance simulator that stands in
// for the paper's hardware — the 12-core Westmere node of Figure 3 and
// the BlueGene/Q system (16-core nodes, 32-node racks) of Figures 4–5 —
// which is not the machine it runs on. Figure 3 is a one-rank cluster:
// every figure goes through SimulateCluster, one node model for all.
//
// The simulator steps the engine's phases in virtual time on the engine's
// inputs: the items and their degrees come from the real synthetic
// datasets, the partition and routing from the real partitioner
// (partition.Build and the engine's own partition.Plan.Route, test-set
// routing included), and the kernel costs from the engine's own sweeps
// timed on this machine (CalibrateCostModel, SweepTime). Its node walks
// each sweep's items in storage order, one task per item; the engines
// walk the sampler's lane order (core.Sampler.Order) in tasks of
// core.ItemGrain positions (Machine.Sweep, ROADMAP item 4). Its traffic
// is exact, not modeled: items sent, ghost rows received and coalesced
// messages per rank equal a measured dist.RunInProc's (traffic_test.go,
// 1–4 ranks, three buffer sizes, both paper shapes). Its per-rank compute
// is held to a measured run's dist.Stats.ComputeTime within a factor of
// two (compute_test.go, 1 and 2 ranks, both paper shapes, calibrated in
// process). What it models, rather than measures, are the parts that
// need hardware: concurrent cores (greedy work-stealing/static/GraphLab
// scheduling in virtual time), the per-node cache (the super-linear
// region of Figure 4), link latency/bandwidth and the shared per-rack
// uplink whose saturation collapses scaling past one rack.
package des

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// CostModel holds calibrated per-operation costs in seconds. All values
// refer to one item update at the latent dimension K it was built for.
type CostModel struct {
	// PerRating is the cost of folding one rating into the posterior
	// precision and rhs in the Cholesky kernels' accumulation.
	PerRating float64
	// PerItem is the fixed cost of a Cholesky-kernel item update: the
	// factorization of the K x K precision and the draw.
	PerItem float64
	// RankOnePerRating is the per-rating cost of the rank-one-update
	// kernel (a K² Cholesky update per rating, four items per register).
	RankOnePerRating float64
	// RankOnePerItem is the rank-one kernel's fixed cost (solve + draw
	// only; no K³ factorization).
	RankOnePerItem float64
	// TaskOverhead is the scheduling cost of one work-stealing task.
	TaskOverhead float64
	// BarrierPerThread is the cost of one barrier per participating
	// thread (OpenMP/GraphLab supersteps).
	BarrierPerThread float64
	// GraphLabPerVertex and GraphLabPerEdge are the vertex-program
	// engine's overheads (per-activation allocation + dispatch, per-edge
	// gather copy), calibrated from the real graphlab engine.
	GraphLabPerVertex float64
	GraphLabPerEdge   float64
	// MomentPerRow is the hyperparameter moment cost per factor row.
	MomentPerRow float64
	// EvalPerEntry is the cost of scoring one held-out test entry (one
	// K-length dot plus clamp and accumulate) in the end-of-iteration
	// evaluation, which every engine now runs chunk-parallel over fixed
	// core.EvalChunk chunks.
	EvalPerEntry float64
}

// SerialItemCost returns the modeled cost of one item update with nnz
// ratings using the serial Cholesky kernel.
func (cm CostModel) SerialItemCost(nnz int) float64 {
	return cm.PerItem + cm.PerRating*float64(nnz)
}

// RankOneItemCost returns the modeled cost with the rank-one kernel.
func (cm CostModel) RankOneItemCost(nnz int) float64 {
	return cm.RankOnePerItem + cm.RankOnePerRating*float64(nnz)
}

// EvalMakespan returns the modeled duration of the chunk-parallel
// evaluation of nTest held-out entries on `threads` cores: whole
// core.EvalChunk chunks are list-scheduled (the decomposition is fixed,
// so fewer chunks than cores leaves cores idle — the same granularity
// floor the real engines have), with the tail chunk rounded up to a full
// one.
func (cm CostModel) EvalMakespan(nTest, threads int) float64 {
	if nTest <= 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	chunks := (nTest + core.EvalChunk - 1) / core.EvalChunk
	perThread := (chunks + threads - 1) / threads
	chunkCost := cm.EvalPerEntry*float64(core.EvalChunk) + cm.TaskOverhead
	return float64(perThread) * chunkCost
}

// CalibrateCostModel measures the cost constants at latent dimension k
// on the current machine by timing the engine's own code: item sweeps
// through core.Sampler.UpdateRange (SweepTime), each kernel's fixed and
// per-rating cost a straight line through its per-item cost at two
// degrees; the grouped moment reduction per factor row; and the
// predictor's chunked scoring pass per test entry.
func CalibrateCostModel(k int) CostModel {
	cfg := core.DefaultConfig()
	cfg.K = k
	var cm CostModel
	line := func(kern core.Kernel, d1, d2 int) (perItem, perRating float64) {
		t1, t2 := SweepTime(cfg, kern, calRows, d1), SweepTime(cfg, kern, calRows, d2)
		perRating = max(t2-t1, 0) / float64(d2-d1)
		return max(t1-perRating*float64(d1), 0), perRating
	}
	// Each line is anchored at degree 1, so the fixed cost is read, not
	// extrapolated: at K = 16 the Cholesky intercept extrapolated from
	// degree 32 is about half the degree-32 time, and a 1.7× slowdown of
	// one sweep against the other (they run milliseconds apart) drives it
	// to zero. The far degree spans each kernel's range under the default
	// thresholds.
	cm.PerItem, cm.PerRating = line(core.KernelCholesky, 1, 512)
	cm.RankOnePerItem, cm.RankOnePerRating = line(core.KernelRankOne, 1, 16)

	// One side's moments, one group, as core.Sampler.Step reduces them.
	const rows = 4096
	r := rng.New(0xca11b8)
	u, v := la.NewMatrix(rows, k), la.NewMatrix(rows, k)
	r.FillNorm(u.Data)
	r.FillNorm(v.Data)
	mws := core.NewMomentsWorkspace(k)
	groups := []int{0, rows}
	cm.MomentPerRow = timeCall(func() { core.MomentsGroupedWS(u, groups, k, nil, mws) }) / rows

	// Scoring a test set of 4 EvalChunk chunks, a sample collected.
	test := make([]sparse.Entry, 4*core.EvalChunk)
	for i := range test {
		test[i] = sparse.Entry{Row: int32(r.Intn(rows)), Col: int32(r.Intn(rows)), Val: 3}
	}
	pred := core.NewPredictor(test, 1, 5)
	cm.EvalPerEntry = timeCall(func() { pred.PartialUpdatePar(u, v, true, nil) }) / float64(len(test))

	// Scheduling overheads: representative constants measured once on
	// commodity hardware; they only set the small-item floor of the
	// curves. Task spawn+steal ≈ 250 ns; barrier ≈ 5 µs per thread;
	// GraphLab per-vertex accumulator allocation + dispatch ≈ 2 µs,
	// per-edge copy ≈ 60 ns + one factor-row copy.
	cm.TaskOverhead = 250e-9
	cm.BarrierPerThread = 5e-6
	cm.GraphLabPerVertex = 2e-6
	cm.GraphLabPerEdge = 60e-9 + cm.PerRating*0.35
	return cm
}

// calRows is the number of items CalibrateCostModel draws per sweep: four
// full lane groups.
const calRows = 16

// SweepTime returns the seconds per item of one core.Sampler.UpdateRange
// over rows items of degree d, every item rating partners 0, …, d−1, with
// the kernel forced to kern through the Config's thresholds: the draw
// core's sweeps run, at any degree (the Cholesky kernels need d ≥ 1).
func SweepTime(cfg core.Config, kern core.Kernel, rows, d int) float64 {
	switch kern {
	case core.KernelRankOne:
		cfg.RankOneMax, cfg.KernelThreshold = d, d+1
	case core.KernelCholesky:
		cfg.RankOneMax, cfg.KernelThreshold = d-1, d+1
	default:
		cfg.RankOneMax, cfg.KernelThreshold = d-1, d
	}
	r := &sparse.CSR{M: rows, N: max(d, 1), RowPtr: make([]int64, 1, rows+1)}
	for i := 0; i < rows; i++ {
		for c := 0; c < d; c++ {
			r.Col, r.Val = append(r.Col, int32(c)), append(r.Val, 1+float64(c%5))
		}
		r.RowPtr = append(r.RowPtr, int64(len(r.Col)))
	}
	s, err := core.NewSampler(cfg, core.NewProblem(r, nil))
	if err != nil {
		panic(err)
	}
	ord, n := s.Order(core.SideU)
	return timeCall(func() { s.UpdateRange(core.SideU, 0, ord, 0, n, nil) }) / float64(rows)
}

// timeCall returns the seconds of one call of f: the fastest of three
// batches of calls that each run at least 5 ms. Other processes only ever
// slow a batch down, so the fastest is the least disturbed.
func timeCall(f func()) float64 {
	batch := func(reps int) float64 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return time.Since(start).Seconds()
	}
	reps := 1
	el := batch(reps)
	for ; el < 5e-3; el = batch(reps) {
		reps *= 2
	}
	return min(el, batch(reps), batch(reps)) / float64(reps)
}

// DefaultCostModel returns a fixed cost model (no measurement) for
// reproducible tests: roughly a 2.8 GHz Westmere-era core at K = 32.
func DefaultCostModel(k int) CostModel {
	scale := float64(k*k) / (32.0 * 32.0)
	return CostModel{
		PerRating:         1.1e-6 * scale,
		PerItem:           11e-6 * math.Pow(float64(k)/32.0, 3),
		RankOnePerRating:  2.6e-6 * scale,
		RankOnePerItem:    2.5e-6 * scale,
		TaskOverhead:      250e-9,
		BarrierPerThread:  5e-6,
		GraphLabPerVertex: 2e-6,
		GraphLabPerEdge:   60e-9 + 0.4e-6*scale,
		MomentPerRow:      1.1e-6 * scale,
		EvalPerEntry:      25e-9 * float64(k) / 32.0,
	}
}

// Machine describes the simulated cluster.
type Machine struct {
	Nodes        int
	CoresPerNode int
	// Policy is how each node schedules its item sweeps on its cores.
	Policy Policy
	// RackSize nodes share one uplink for inter-rack traffic.
	RackSize int
	// IntraLatency / InterLatency are per-message one-way latencies (s).
	IntraLatency, InterLatency float64
	// LinkBandwidth is each node's NIC bandwidth (bytes/s).
	LinkBandwidth float64
	// UplinkBandwidth is the shared per-rack inter-rack bandwidth
	// (bytes/s). The ratio LinkBandwidth·RackSize / UplinkBandwidth sets
	// how hard scaling collapses past one rack (Figure 4).
	UplinkBandwidth float64
	// CacheBytes is the per-node last-level cache; when a node's working
	// set fits, compute runs CacheSpeedup times faster (the super-linear
	// region of Figure 4).
	CacheBytes   float64
	CacheSpeedup float64
	// AllreduceLatency is the per-hop cost of the small hyperparameter
	// allreduce (s).
	AllreduceLatency float64
	// MsgOverhead is the per-message software cost at the sender (the
	// MPI_Isend call path). This is what makes unbuffered per-item sends
	// uncompetitive (Section IV-C).
	MsgOverhead float64
}

// BlueGeneQ models the paper's Fermi system: 16-core 1.2 GHz nodes,
// 32-node racks (one "node rack" in the paper's wording), fast torus
// links inside a rack and a shared, narrower path between racks.
func BlueGeneQ(nodes int) Machine {
	return Machine{
		Nodes:            nodes,
		CoresPerNode:     16,
		RackSize:         32,
		IntraLatency:     2e-6,
		InterLatency:     6e-6,
		LinkBandwidth:    4e9,
		UplinkBandwidth:  8e9, // shared by the whole rack
		CacheBytes:       32 << 20,
		CacheSpeedup:     1.9,
		AllreduceLatency: 3e-6,
		MsgOverhead:      2.5e-6, // the paper blames "a large overhead in the MPI library itself"
	}
}

// Lynx models the paper's 20-node Westmere cluster (dual 6-core nodes,
// 10 GbE-class interconnect, single rack) on which the industrial ChEMBL
// runs were performed.
func Lynx(nodes int) Machine {
	return Machine{
		Nodes:            nodes,
		CoresPerNode:     12,
		RackSize:         64, // one rack: no uplink bottleneck
		IntraLatency:     25e-6,
		InterLatency:     25e-6,
		LinkBandwidth:    1.25e9,
		UplinkBandwidth:  0,
		CacheBytes:       12 << 20,
		CacheSpeedup:     1.0,
		AllreduceLatency: 12e-6,
		MsgOverhead:      3e-6,
	}
}

// cacheFactor returns the compute speed multiplier for a node whose
// working set is ws bytes: full speedup when comfortably cached, none
// when far larger, log-linear in between.
func (m Machine) cacheFactor(ws float64) float64 {
	if m.CacheSpeedup <= 1 || m.CacheBytes <= 0 {
		return 1
	}
	lo := 0.75 * m.CacheBytes // fully cached below this
	hi := 4.0 * m.CacheBytes  // no benefit above this
	switch {
	case ws <= lo:
		return m.CacheSpeedup
	case ws >= hi:
		return 1
	default:
		t := math.Log(ws/lo) / math.Log(hi/lo)
		return m.CacheSpeedup * math.Pow(1/m.CacheSpeedup, t)
	}
}
