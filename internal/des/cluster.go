package des

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// ClusterWorkload is the distilled per-rank workload of one distributed
// BPMF configuration: what each rank computes and what it ships where —
// extracted from the real partitioner output and the engine's own routing
// rule (partition.Plan.Route), so the simulator replays the actual engine
// schedule. Its traffic is the engine's to the item: traffic_test.go pins
// items sent, ghosts received and messages per rank to a measured
// dist.RunInProc.
type ClusterWorkload struct {
	Ranks int
	Cfg   core.Config
	// MovieNNZ[p] / UserNNZ[p] are the rating counts of rank p's items,
	// in update order.
	MovieNNZ, UserNNZ [][]int
	// MovieSends[p][q] / UserSends[p][q] count the items rank p ships to
	// rank q per iteration in each phase. Rank q receives the column sums.
	MovieSends, UserSends [][]int64
	// WorkingSet[p] is rank p's touched bytes per iteration (owned rows,
	// ghost rows, rating slice) for the cache model.
	WorkingSet []float64
	// RecordBytes is the wire size of one item (4 + 8K).
	RecordBytes int
	// TotalItems is the number of item updates per iteration (M + N).
	TotalItems int64
	// TestEntries[q] counts the held-out entries rank q scores at the end
	// of every iteration, chunk-parallel: those on the users it owns, the
	// real engine's per-rank predictor. Without a test set the evaluation
	// phase is omitted.
	TestEntries []int64
}

// BuildClusterWorkload derives the workload of a distributed run on plan
// that evaluates test after every iteration (nil: no evaluation). The
// sends are every rank's partition.Plan.Route, so movie rows also go to
// the ranks that score a test entry on them, as the engine routes them.
func BuildClusterWorkload(plan *partition.Plan, test []sparse.Entry, cfg core.Config) *ClusterWorkload {
	r := plan.R
	rt := r.Transpose()
	p := len(plan.RowBounds) - 1
	w := &ClusterWorkload{
		Ranks:       p,
		Cfg:         cfg,
		MovieNNZ:    make([][]int, p),
		UserNNZ:     make([][]int, p),
		MovieSends:  make([][]int64, p),
		UserSends:   make([][]int64, p),
		WorkingSet:  make([]float64, p),
		RecordBytes: 4 + 8*cfg.K,
		TotalItems:  int64(r.M + r.N),
		TestEntries: make([]int64, p),
	}
	rowOwner, colOwner := partition.Owners(plan.RowBounds, r.M), partition.Owners(plan.ColBounds, r.N)
	for _, e := range test {
		w.TestEntries[rowOwner[e.Row]]++
	}
	rowBytes := float64(8 * cfg.K)
	for q := 0; q < p; q++ {
		routes := plan.Route(q, rt, rowOwner, colOwner, test)
		w.MovieSends[q], w.UserSends[q] = make([]int64, p), make([]int64, p)
		var ratings float64
		for j := plan.ColBounds[q]; j < plan.ColBounds[q+1]; j++ {
			d := rt.RowNNZ(j)
			w.MovieNNZ[q] = append(w.MovieNNZ[q], d)
			ratings += float64(d)
		}
		for i := plan.RowBounds[q]; i < plan.RowBounds[q+1]; i++ {
			d := r.RowNNZ(i)
			w.UserNNZ[q] = append(w.UserNNZ[q], d)
			ratings += float64(d)
		}
		for _, dests := range routes.SendV {
			for _, d := range dests {
				w.MovieSends[q][d]++
			}
		}
		for _, dests := range routes.SendU {
			for _, d := range dests {
				w.UserSends[q][d]++
			}
		}
		owned := float64(len(w.MovieNNZ[q]) + len(w.UserNNZ[q]))
		ghosts := float64(routes.RecvU + routes.RecvV)
		// 12 bytes per stored rating (index + value) touched per sweep.
		w.WorkingSet[q] = (owned+ghosts)*rowBytes + ratings*12
	}
	return w
}

// ClusterResult is one simulated configuration's outcome.
type ClusterResult struct {
	Nodes       int
	Cores       int
	IterTime    float64 // seconds of virtual time per Gibbs iteration
	ItemsPerSec float64
	// Breakdown is the Figure 5 decomposition averaged over ranks,
	// normalized to fractions of the iteration.
	Breakdown Breakdown
	// Compute[q] is rank q's two item sweeps, in seconds per iteration:
	// what dist.Stats.ComputeTime measures, divided by the iterations.
	Compute []float64
}

// message is one coalesced transfer in flight.
type message struct {
	emit     float64
	src, dst int
	bytes    float64
}

// simIters is the number of iterations SimulateCluster steps; it reports
// the last, whose movie phase starts behind the previous user phase's
// ghosts.
const simIters = 3

// SimulateCluster runs the phase-stepped discrete-event simulation of the
// distributed engine on machine m and returns steady-state metrics.
// bufferBytes is the coalescing buffer capacity (the Section IV-C knob),
// read as dist.Options.BufferSize: negative sends one message per item,
// 0 means dist.DefaultBufferSize.
func SimulateCluster(w *ClusterWorkload, m Machine, cm CostModel, bufferBytes int) ClusterResult {
	p := w.Ranks
	cfg := w.Cfg
	if bufferBytes == 0 {
		bufferBytes = dist.DefaultBufferSize
	}

	// Per-rank compute durations are iteration-invariant: precompute.
	durV := make([]float64, p)
	durU := make([]float64, p)
	compute := make([]float64, p)
	for q := 0; q < p; q++ {
		f := m.cacheFactor(w.WorkingSet[q])
		durV[q] = m.sweep(w.MovieNNZ[q], cm, &cfg) / f
		durU[q] = m.sweep(w.UserNNZ[q], cm, &cfg) / f
		compute[q] = durV[q] + durU[q]
		// Moments parallelize trivially under every policy (GraphLab runs
		// them through its aggregate path with the same static split).
		moments := cm.MomentPerRow * float64(len(w.MovieNNZ[q])+len(w.UserNNZ[q])) /
			float64(m.CoresPerNode) / f
		durU[q] += moments
	}

	allreduceCost := 2 * math.Ceil(math.Log2(float64(p)+1)) * m.AllreduceLatency
	if p == 1 {
		allreduceCost = 0
	}

	// Per-rank evaluation durations: the rank's test entries,
	// chunk-parallel on its cores (the real engine's
	// Predictor.PartialUpdatePar).
	evalDur := make([]float64, p)
	for q, n := range w.TestEntries {
		evalDur[q] = cm.EvalMakespan(int(n), m.CoresPerNode) / m.cacheFactor(w.WorkingSet[q])
	}

	// Simulation state.
	now := 0.0
	ghostReadyV := make([]float64, p) // when this rank's V ghosts arrived
	ghostReadyU := make([]float64, p)
	var res ClusterResult
	res.Nodes = p
	res.Cores = p * m.CoresPerNode
	res.Compute = compute

	for it := 0; it < simIters; it++ {
		iterStart := now
		computeIv := make([]intervalSet, p)
		commIv := make([]intervalSet, p)

		// --- V-hyper allreduce: sync on every rank being past its U
		// compute of the previous iteration (now) — "now" already holds
		// that barrier time.
		vHyperDone := now + allreduceCost

		// --- Movie phase: rank q starts when the allreduce is done and
		// its U ghosts from the previous iteration have arrived.
		startV := make([]float64, p)
		endV := make([]float64, p)
		for q := 0; q < p; q++ {
			startV[q] = math.Max(vHyperDone, ghostReadyU[q])
			endV[q] = startV[q] + durV[q]
			computeIv[q].Add(startV[q], endV[q])
		}
		msgsV := emitMessages(w.MovieSends, startV, durV, w.RecordBytes, bufferBytes)
		arriveV := network(msgsV, m, p, &commIv)
		for q := 0; q < p; q++ {
			ghostReadyV[q] = math.Max(endV[q], arriveV[q])
		}

		// --- U-hyper allreduce: all ranks must finish movie compute.
		var maxEndV float64
		for q := 0; q < p; q++ {
			if endV[q] > maxEndV {
				maxEndV = endV[q]
			}
		}
		uHyperDone := maxEndV + allreduceCost

		// --- User phase: needs the full V of this iteration.
		startU := make([]float64, p)
		endU := make([]float64, p)
		for q := 0; q < p; q++ {
			startU[q] = math.Max(uHyperDone, ghostReadyV[q])
			endU[q] = startU[q] + durU[q]
			computeIv[q].Add(startU[q], endU[q])
		}
		msgsU := emitMessages(w.UserSends, startU, durU, w.RecordBytes, bufferBytes)
		arriveU := network(msgsU, m, p, &commIv)
		for q := 0; q < p; q++ {
			ghostReadyU[q] = math.Max(endU[q], arriveU[q])
		}

		// Iteration ends when every rank finished its user compute plus —
		// when a test set is modeled — the evaluation of its local test
		// share, which starts only after the rank's U ghosts arrived (the
		// real engine evaluates on the completed replica). The RMSE
		// allreduce is the closing sync; with no evaluation, ghost waits
		// roll into the next iteration's movie phase as before.
		var maxEnd float64
		for q := 0; q < p; q++ {
			end := endU[q]
			if evalDur[q] > 0 {
				end = ghostReadyU[q] + evalDur[q]
				computeIv[q].Add(ghostReadyU[q], end)
			}
			if end > maxEnd {
				maxEnd = end
			}
		}
		now = maxEnd + allreduceCost

		if it == simIters-1 {
			res.IterTime = now - iterStart
			res.ItemsPerSec = float64(w.TotalItems) / res.IterTime
			// Figure 5 breakdown averaged over ranks.
			var agg Breakdown
			for q := 0; q < p; q++ {
				b := overlapBreakdown(&computeIv[q], &commIv[q], res.IterTime).Fractions()
				agg.ComputeOnly += b.ComputeOnly
				agg.CommunicateOnly += b.CommunicateOnly
				agg.Both += b.Both
				agg.Idle += b.Idle
			}
			inv := 1 / float64(p)
			agg.ComputeOnly *= inv
			agg.CommunicateOnly *= inv
			agg.Both *= inv
			agg.Idle *= inv
			res.Breakdown = agg
		}
	}
	return res
}

// emitMessages produces the coalesced transfers of one phase: sends[q][d]
// items from q to d, emitted uniformly across q's compute window as
// buffers fill, with the final partial buffer at compute end. This is
// dist.Node.updateSide's behaviour at any thread count: finished rows
// enter the coalescers a grain at a time while the node's cores (the
// Machine.sweep) are still drawing the rest.
func emitMessages(sends [][]int64, start, dur []float64, recordBytes, bufferBytes int) []message {
	bufItems := bufferBytes / recordBytes
	if bufItems < 1 {
		bufItems = 1
	}
	var msgs []message
	for q := range sends {
		for d, cnt := range sends[q] {
			if cnt == 0 || d == q {
				continue
			}
			full := int(cnt) / bufItems
			rem := int(cnt) % bufItems
			for k := 1; k <= full; k++ {
				frac := float64(k*bufItems) / float64(cnt)
				msgs = append(msgs, message{
					emit:  start[q] + dur[q]*frac,
					src:   q,
					dst:   d,
					bytes: float64(bufItems * recordBytes),
				})
			}
			if rem > 0 {
				msgs = append(msgs, message{
					emit:  start[q] + dur[q],
					src:   q,
					dst:   d,
					bytes: float64(rem * recordBytes),
				})
			}
		}
	}
	return msgs
}

// network pushes the phase's messages through the machine model — sender
// NIC serialization, then the shared rack uplink for inter-rack traffic —
// and returns each rank's last-arrival time. commIv accumulates per-rank
// communication-busy intervals for the Figure 5 breakdown.
func network(msgs []message, m Machine, p int, commIv *[]intervalSet) []float64 {
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].emit < msgs[j].emit })
	nicFree := make([]float64, p)
	racks := (p + m.RackSize - 1) / m.RackSize
	upFree := make([]float64, racks)
	arrive := make([]float64, p)
	for _, msg := range msgs {
		srcRack := msg.src / m.RackSize
		dstRack := msg.dst / m.RackSize
		// Sender software overhead + NIC serialization.
		t := math.Max(msg.emit, nicFree[msg.src])
		txEnd := t + m.MsgOverhead
		if m.LinkBandwidth > 0 {
			txEnd += msg.bytes / m.LinkBandwidth
		}
		nicFree[msg.src] = txEnd
		var at float64
		if srcRack == dstRack {
			at = txEnd + m.IntraLatency
		} else {
			// Shared rack uplink FIFO.
			ut := math.Max(txEnd, upFree[srcRack])
			var upEnd float64
			if m.UplinkBandwidth > 0 {
				upEnd = ut + msg.bytes/m.UplinkBandwidth
			} else {
				upEnd = ut
			}
			upFree[srcRack] = upEnd
			at = upEnd + m.InterLatency
		}
		if at > arrive[msg.dst] {
			arrive[msg.dst] = at
		}
		(*commIv)[msg.src].Add(msg.emit, at)
		(*commIv)[msg.dst].Add(msg.emit, at)
	}
	return arrive
}
