package main

import (
	"fmt"
	"math"
)

// pipeline runs the whole benchmark for one workload and seed and
// returns every metric it measured, by name: the end-to-end metrics
// always, and the per-layer metrics when this is the traced run.
func (e *env) pipeline(refs references) (map[string]float64, error) {
	m := map[string]float64{}
	buildT, err := e.buildBinaries()
	if err != nil {
		return nil, err
	}
	ds, ref, setupS, err := e.setUp()
	if err != nil {
		return nil, err
	}

	var dr, plain driveOut
	if e.tr != nil {
		e.kernelLayers(m, ds, ref)
		if err := e.storageLayers(m, ds, ref); err != nil {
			return nil, err
		}
		pair := e.pr.series()
		plain = drive(nil, ref.cfg, ds.prob, ref.sampler)
		pair.add(plain.wallS)
		dr = drive(e.tr, ref.cfg, ds.prob, ref.sampler)
		pair.add(dr.wallS)
		at := pair.atRefSpeed(false)
		m["trace.overhead_share"] = (at[1] - at[0]) / at[0]
		e.attempted++
		if !dr.identical || !plain.identical || dr.rmse != ref.rmse {
			e.failed++
			e.wrongf("the sequential driver left core.Sampler's chain (RMSE %.17g vs %.17g)", dr.rmse, ref.rmse)
		}
	}

	tr, err := e.trainStage(ds, ref, refs)
	if err != nil {
		return nil, err
	}
	sv, err := e.serveStage(ds, ref)
	if err != nil {
		return nil, err
	}
	rf, err := e.refreshStage(ds, ref)
	if err != nil {
		return nil, err
	}

	// ups and wall are at the reference box's speed, rawUPS as measured.
	var ups, wall, rawUPS, machine []float64
	var kernels [3]int64
	for _, r := range tr.Reps {
		ups, wall = append(ups, r.UPS*r.Machine), append(wall, r.WallS/r.Machine)
		rawUPS, machine = append(rawUPS, r.UPS), append(machine, r.Machine)
		kernels = r.Kernels
	}
	var refresh, cycle, detect, appendMs []float64
	for _, ro := range rf.rounds {
		refresh, cycle, detect = append(refresh, ro.refreshS), append(cycle, ro.cycleS), append(detect, ro.detectS)
		appendMs = append(appendMs, ro.appendMs...)
	}
	for _, sr := range []*series{sv.segRPS, rf.refreshS} {
		machine = append(machine, sr.factors()...)
	}

	// End to end: each a median over the stage's repeated fixed work, the
	// three measured stages in seconds of the quiet reference box (see
	// probe.go). Set-up is as measured: it is mostly process start, file
	// I/O and one single-threaded chain, which the probe does not track.
	m["setup_s"] = median(setupS)
	m["peak_rss_mb"] = math.Max(math.Max(tr.RSSMB, sv.rssMB), math.Max(rf.serveRSS, rf.trainRSS))
	m["updates_per_s"] = median(ups)
	m["train_wall_s"] = median(wall)
	m["serve_closed_rps"] = median(sv.segRPS.atRefSpeed(true))
	m["refresh_s"] = median(rf.refreshS.atRefSpeed(false))
	e.detail = map[string]any{
		"setup_s": setupS, "reference_rmse": ref.rmse, "train": tr.Reps,
		"closed_segment_rps": sv.segRPS, "closed_requests": sv.closedN,
		"refresh": rf.refreshS, "trainer_cycle_s": cycle, "machine_factor": median(machine),
		"hold_segment_p50_ms": sv.segP50, "hold_segment_p99_ms": sv.segP99, "hold_requests": len(sv.hold),
		"rss_mb": map[string]float64{"train": tr.RSSMB, "serve": math.Max(sv.rssMB, rf.serveRSS), "trainer": rf.trainRSS},
	}
	if e.tr == nil {
		return m, nil
	}

	// Per layer.
	m["bench.build_s"] = buildT.Seconds()
	m["bench.machine_factor"] = median(machine)
	m["train.rss_mb"], m["serve.rss_mb"], m["trainer.rss_mb"] = tr.RSSMB, math.Max(sv.rssMB, rf.serveRSS), rf.trainRSS
	m["core.sweep_self_s"], m["core.hyper_self_s"] = median(dr.sweepS), median(dr.hyperS)
	m["core.eval_self_s"], m["core.iter_s"] = median(dr.evalS), median(dr.iterS)
	m["core.kernel_count.rankupdate"] = float64(kernels[0])
	m["core.kernel_count.serial_chol"] = float64(kernels[1])
	m["core.kernel_count.parallel_chol"] = float64(kernels[2])
	if err := e.engineLayers(m, ds, ref, median(rawUPS)); err != nil {
		return nil, err
	}
	if err := e.serveLayers(m, ref, ds, sv, buildRequests(e.seed, 2, len(sv.hold), e.w.holdRPS, ds.full.M, ds.full.N)); err != nil {
		return nil, err
	}
	m["serve.ladder.max_ok_rps"] = 0 // stays 0 when no step meets the limit
	for _, st := range sv.ladder {
		m[fmt.Sprintf("serve.ladder.p99_ms.x%g", st.mult)] = st.p99Ms
		if st.p99Ms <= e.w.p99LimitMs && st.failedShare <= 0.001 && !st.backlog {
			m["serve.ladder.max_ok_rps"] = math.Max(m["serve.ladder.max_ok_rps"], st.rps)
		}
	}
	m["serve_p50_ms"], m["serve_p99_ms"] = sv.p50Ms, sv.p99Ms
	m["loadgen.late_ms_p99"] = sv.lateP99Ms
	m["loadgen.sent"], m["loadgen.ok"] = float64(sv.sent), float64(sv.ok)
	m["loadgen.shed"], m["loadgen.failed"] = float64(sv.shed), float64(sv.failedN)

	sorted := sortedCopy(appendMs)
	m["feed.append_ms_p50"], _ = percentile(sorted, 50)
	m["feed.append_ms_p90"], _ = percentile(sorted, 90)
	m["feed.compact_s"] = rf.replica["feed.compact"]
	m["feed.open_recover_s"] = rf.replica["feed.open_recover"]
	m["trainer.cycle_s"] = median(cycle)
	m["trainer.replay_s"] = rf.replica["trainer.replay"]
	half := len(refresh) / 2
	m["trainer.round_growth"] = median(refresh[len(refresh)-half:]) / median(refresh[:half])
	m["core.resume_grown_s"] = rf.replica["core.resume_grown"]
	m["serve.publish_s"] = rf.replica["serve.publish"]
	m["serve.reload_s"] = rf.replica["serve.reload"]
	m["serve.reload_detect_s"] = median(detect)

	for name, n := range map[string]float64{
		"core.updates.rankupdate": m["core.kernel_count.rankupdate"], "core.updates.serial_chol": m["core.kernel_count.serial_chol"],
		"core.updates.parallel_chol": m["core.kernel_count.parallel_chol"], "train.repetitions": float64(len(tr.Reps)),
		"serve.hold.requests": float64(len(sv.hold)), "serve.closed.requests": float64(sv.closedN),
		"serve.failed": float64(sv.failedN), "feed.appends": float64(len(appendMs)),
		"feed.ratings": float64(len(appendMs) * e.w.appendSize), "refresh.rounds": float64(len(rf.rounds)),
		"comm.bytes_per_iter": m["comm.bytes_per_iter"], "comm.msgs_per_iter": m["comm.msgs_per_iter"],
	} {
		e.tr.count(name, int64(n))
	}

	// Trust in the budget: how much of each traced parent its child
	// spans account for, and what the spans themselves cost.
	m["trace.coverage_train"] = coverage(e.tr.snapshot(), dr.root)
	// One round's wall time moves by a tenth either way, so the replica is
	// held against the median of the subprocess's three rounds around it.
	m["trace.coverage_refresh"] = rf.replica["sum"] / median(cycle[replicaRound-1:replicaRound+2])
	m["trace.coverage"] = math.Min(m["trace.coverage_train"], m["trace.coverage_refresh"])
	m["failed_share"] = float64(e.failed) / float64(e.attempted)
	return m, nil
}
