// Package des is the discrete-event performance simulator that stands in
// for the paper's hardware — the 12-core Westmere node of Figure 3 and
// the BlueGene/Q system (16-core nodes, 32-node racks) of Figures 4–5 —
// which cannot be measured on this single-core host.
//
// The simulator replays the *actual* engine schedules in virtual time:
// the item task sets come from the real synthetic datasets, the partition
// and routing from the real partitioner, and the kernel costs from
// micro-benchmarks calibrated on this machine (CalibrateCostModel). What
// it models, rather than measures, are the parts that need hardware:
// concurrent cores (greedy work-stealing/static/GraphLab scheduling in
// virtual time), the per-node cache (the super-linear region of Figure
// 4), link latency/bandwidth and the shared per-rack uplink whose
// saturation collapses scaling past one rack.
package des

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/rng"
)

// CostModel holds calibrated per-operation costs in seconds. All values
// refer to one item update at the model's latent dimension K.
type CostModel struct {
	K int
	// PerRating is the cost of folding one rating into the posterior
	// precision and rhs (one K-length SyrLower + Axpy).
	PerRating float64
	// PerItem is the fixed cost of an item update: posterior solve,
	// Cholesky of the K x K precision, and the sample draw.
	PerItem float64
	// RankOnePerRating is the per-rating cost of the rank-one-update
	// kernel (a full K² Cholesky update per rating — more expensive per
	// rating, but the kernel has near-zero fixed cost).
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

// ParallelItemCost returns the modeled wall-clock cost of one heavy item
// on p cooperating cores with the given accumulation grain: the
// accumulation parallelizes, the K³ factorization and solve do not
// (K << nnz), and every chunk pays one task overhead.
func (cm CostModel) ParallelItemCost(nnz, grain, p int) float64 {
	if grain < 1 {
		grain = 1
	}
	chunks := (nnz + grain - 1) / grain
	if chunks < 1 {
		chunks = 1
	}
	workers := p
	if chunks < workers {
		workers = chunks
	}
	if workers < 1 {
		workers = 1
	}
	accum := cm.PerRating * float64(nnz) / float64(workers)
	return cm.PerItem + accum + cm.TaskOverhead*float64(chunks)
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

// CalibrateCostModel measures the kernel constants on the current machine
// with short micro-benchmarks (a few milliseconds each) at latent
// dimension k. Deterministic inputs; timing noise is averaged out over
// repetitions.
func CalibrateCostModel(k int) CostModel {
	cm := CostModel{K: k}
	r := rng.New(0xca11b8)
	x := la.NewVector(k)
	r.FillNorm(x)
	prec := la.Eye(k)
	rhs := la.NewVector(k)

	// Per-rating: SyrLower + Axpy.
	reps := 20000
	start := time.Now()
	for i := 0; i < reps; i++ {
		la.SyrLower(0.5, x, prec)
		la.Axpy(0.5, x, rhs)
	}
	cm.PerRating = time.Since(start).Seconds() / float64(reps)

	// Fixed per item: Cholesky + solve + draw (K normals + back-solve).
	spd := la.Eye(k)
	for i := 0; i < k; i++ {
		spd.Set(i, i, float64(k))
	}
	l := la.NewMatrix(k, k)
	mu := la.NewVector(k)
	scratch := la.NewVector(k)
	out := la.NewVector(k)
	reps = 4000
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := la.Cholesky(spd, l); err != nil {
			panic(err)
		}
		la.SolveSPD(l, rhs, mu, scratch)
		r.MVNFromPrecChol(mu, l, out, scratch)
	}
	cm.PerItem = time.Since(start).Seconds() / float64(reps)

	// Rank-one kernel: per-rating CholUpdate + Axpy; fixed = solve + draw.
	reps = 20000
	xc := x.Clone()
	start = time.Now()
	for i := 0; i < reps; i++ {
		copy(xc, x)
		la.CholUpdate(l, xc)
		la.Axpy(0.5, x, rhs)
	}
	cm.RankOnePerRating = time.Since(start).Seconds() / float64(reps)
	reps = 4000
	start = time.Now()
	for i := 0; i < reps; i++ {
		la.SolveSPD(l, rhs, mu, scratch)
		r.MVNFromPrecChol(mu, l, out, scratch)
	}
	cm.RankOnePerItem = time.Since(start).Seconds() / float64(reps)

	// Moments per row: Axpy + SyrLower, same as PerRating.
	cm.MomentPerRow = cm.PerRating

	// Evaluation per entry: one k-length dot plus clamp/accumulate.
	y := la.NewVector(k)
	r.FillNorm(y)
	reps = 200000
	var sink float64
	start = time.Now()
	for i := 0; i < reps; i++ {
		sink += la.Dot(x, y)
	}
	cm.EvalPerEntry = time.Since(start).Seconds() / float64(reps)
	rhs[0] += sink * 1e-300 // keep the measured loop observable

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

// DefaultCostModel returns a fixed cost model (no measurement) for
// reproducible tests: roughly a 2.8 GHz Westmere-era core at K = 32.
func DefaultCostModel(k int) CostModel {
	scale := float64(k*k) / (32.0 * 32.0)
	return CostModel{
		K:                 k,
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
