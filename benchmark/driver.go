package main

import (
	"time"

	"repro/internal/core"
)

// driveOut is what the benchmark's own sequential driver measured.
type driveOut struct {
	rmse                         float64
	wallS                        float64
	sweepS, hyperS, evalS, iterS []float64 // one per iteration
	identical                    bool      // final U, V equal the reference sampler's bit for bit
	root                         int       // the chain's span
}

// drive steps the Gibbs chain with public core calls only — the same
// sequence core.Sampler.Step runs — with a span around every phase, so
// the traced run can split an iteration into sweep, hyperparameter and
// evaluation time without instrumenting the program. It must finish bit
// identical to core.Sampler on the same problem. With a nil tracer it
// runs the same steps with tracing off, which is the baseline the
// tracing overhead is measured against.
func drive(tr *tracer, cc core.Config, prob *core.Problem, ref *core.Sampler) driveOut {
	k := cc.K
	prior := core.DefaultNWPrior(k)
	u := core.InitFactors(cc.Seed, core.SideU, prob.R.M, k)
	v := core.InitFactors(cc.Seed, core.SideV, prob.R.N, k)
	hu, hv := core.NewHyper(k), core.NewHyper(k)
	pred := core.NewPredictor(prob.Test, cc.ClampMin, cc.ClampMax)
	pred.Alpha = cc.Alpha
	ws, hws, mws := core.NewWorkspace(k), core.NewHyperWorkspace(k), core.NewMomentsWorkspace(k)
	groupsU := core.GroupBoundaries(cc.MomentGroupsU, u.Rows)
	groupsV := core.GroupBoundaries(cc.MomentGroupsV, v.Rows)

	var out driveOut
	phase := func(name string, parent int, f func()) float64 {
		id := tr.start(name, parent)
		f()
		return tr.end(id).Seconds()
	}
	t0 := time.Now()
	out.root = tr.start("core.chain", 0)
	for it := 0; it < cc.Iters; it++ {
		iter := tr.start("core.iter", out.root)
		hyper := phase("core.hyper_v", iter, func() {
			core.SampleHyperWS(prior, core.MomentsGroupedWS(v, groupsV, k, nil, mws),
				core.HyperStream(cc.Seed, it, core.SideV), hv, hws)
		})
		sweep := phase("core.sweep_v", iter, func() {
			for j := 0; j < prob.Rt.M; j++ {
				cols, vals := prob.Rt.Row(j)
				core.UpdateItem(ws, cc.SelectKernel(len(cols)), &cc, cols, vals, u, hv,
					ws.ItemStream(cc.Seed, it, core.SideV, j), nil, nil, v.Row(j))
			}
		})
		hyper += phase("core.hyper_u", iter, func() {
			core.SampleHyperWS(prior, core.MomentsGroupedWS(u, groupsU, k, nil, mws),
				core.HyperStream(cc.Seed, it, core.SideU), hu, hws)
		})
		sweep += phase("core.sweep_u", iter, func() {
			for i := 0; i < prob.R.M; i++ {
				cols, vals := prob.R.Row(i)
				core.UpdateItem(ws, cc.SelectKernel(len(cols)), &cc, cols, vals, v, hu,
					ws.ItemStream(cc.Seed, it, core.SideU, i), nil, nil, u.Row(i))
			}
		})
		eval := phase("core.eval", iter, func() {
			_, out.rmse = pred.Update(u, v, it >= cc.Burnin)
		})
		out.iterS = append(out.iterS, tr.end(iter).Seconds())
		out.sweepS = append(out.sweepS, sweep)
		out.hyperS = append(out.hyperS, hyper)
		out.evalS = append(out.evalS, eval)
	}
	tr.end(out.root)
	out.wallS = time.Since(t0).Seconds()
	out.identical = ref == nil || (equalFloats(u.Data, ref.U.Data) && equalFloats(v.Data, ref.V.Data))
	return out
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
