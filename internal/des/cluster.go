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
// rule (partition.Plan.Route), so the simulator ships what the engine
// ships. Its traffic is the engine's to the item: traffic_test.go pins
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

// phase is one side's half of an iteration: every rank's sweep duration,
// the items it ships where, and when each rank holds the ghost rows the
// phase produced (its own sweep done and the last message in).
type phase struct {
	dur   []float64
	sends [][]int64
	ready []float64
}

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
	movie := phase{dur: make([]float64, p), sends: w.MovieSends, ready: make([]float64, p)}
	user := phase{dur: make([]float64, p), sends: w.UserSends, ready: make([]float64, p)}
	compute := make([]float64, p)
	for q := 0; q < p; q++ {
		f := m.cacheFactor(w.WorkingSet[q])
		movie.dur[q] = m.Sweep(w.MovieNNZ[q], cm, &cfg) / f
		user.dur[q] = m.Sweep(w.UserNNZ[q], cm, &cfg) / f
		compute[q] = movie.dur[q] + user.dur[q]
		// Moments parallelize trivially under every policy (GraphLab runs
		// them through its aggregate path with the same static split).
		moments := cm.MomentPerRow * float64(len(w.MovieNNZ[q])+len(w.UserNNZ[q])) /
			float64(m.CoresPerNode) / f
		user.dur[q] += moments
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

	now, iterStart := 0.0, 0.0
	var computeIv, commIv []intervalSet
	for range simIters {
		iterStart = now
		computeIv, commIv = make([]intervalSet, p), make([]intervalSet, p)
		// Each phase starts with its side's hyper allreduce, which syncs
		// on every rank being past the previous phase's sweep (the movie
		// phase's on now, the previous iteration's end). Rank q then
		// sweeps once that allreduce is done and the ghosts it reads, the
		// other side's, have arrived, and ships its rows as it goes.
		sync := now
		start, end := make([]float64, p), make([]float64, p)
		phases := [2]*phase{&movie, &user}
		for i, ph := range phases {
			reads := phases[1-i].ready
			hyperDone := sync + allreduceCost
			for q := 0; q < p; q++ {
				start[q] = max(hyperDone, reads[q])
				end[q] = start[q] + ph.dur[q]
				computeIv[q].Add(start[q], end[q])
				sync = max(sync, end[q])
			}
			arrive := network(emitMessages(ph.sends, start, ph.dur, w.RecordBytes, bufferBytes), m, p, &commIv)
			for q := 0; q < p; q++ {
				ph.ready[q] = max(end[q], arrive[q])
			}
		}

		// Iteration ends when every rank finished its user compute plus —
		// when a test set is modeled — the evaluation of its local test
		// share, which starts only after the rank's U ghosts arrived (the
		// real engine evaluates on the completed replica). The RMSE
		// allreduce is the closing sync; with no evaluation, ghost waits
		// roll into the next iteration's movie phase.
		for q := 0; q < p; q++ {
			if evalDur[q] > 0 {
				evalEnd := user.ready[q] + evalDur[q]
				computeIv[q].Add(user.ready[q], evalEnd)
				sync = max(sync, evalEnd)
			}
		}
		now = sync + allreduceCost
	}

	res := ClusterResult{Nodes: p, Cores: p * m.CoresPerNode, IterTime: now - iterStart, Compute: compute}
	res.ItemsPerSec = float64(w.TotalItems) / res.IterTime
	// Figure 5 breakdown of the last iteration, averaged over ranks.
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
	return res
}

// emitMessages produces the coalesced transfers of one phase: sends[q][d]
// items from q to d, emitted uniformly across q's compute window as
// buffers fill, with the final partial buffer at compute end. This is
// dist.Node.updateSide's behaviour at any thread count: finished rows
// enter the coalescers a grain at a time while the node's cores (the
// Machine.Sweep) are still drawing the rest.
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
