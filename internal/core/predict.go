package core

import (
	"fmt"
	"math"

	"repro/internal/la"
	"repro/internal/sparse"
)

// EvalChunk is the fixed chunk length of the predictor's squared-error
// reduction. The chunk decomposition is a pure function of len(Test) —
// never of thread count, scheduling grain or engine — and chunk partials
// are combined in ascending chunk order, so the evaluation is one fixed
// summation tree: parallel and sequential execution produce the same
// RMSE bit for bit (the same ordered-reduction discipline the
// hyperparameter moments and the distributed allreduce already follow).
const EvalChunk = 2048

// Predictor maintains the posterior-mean predictions over a held-out test
// set: before burn-in it reports the RMSE of the current sample; from the
// first post-burn-in sample on, it averages predictions across samples
// (the standard BPMF evaluation protocol, and the RMSE the paper's §V-B
// refers to).
type Predictor struct {
	Test     []sparse.Entry
	sum      []float64 // running sum of per-sample predictions
	sumSq    []float64 // running sum of squared per-sample predictions
	nSamples int
	clampMin float64
	clampMax float64
	// partSample/partAvg are the per-chunk partial squared errors of one
	// update pass, preallocated so steady-state scoring never allocates.
	partSample, partAvg []float64
	// Alpha, when positive, is the observation precision; the predictive
	// standard deviation then includes the 1/Alpha observation noise in
	// addition to the posterior spread of u·v (the confidence intervals
	// the paper's introduction credits BPMF with).
	Alpha float64
}

// NewPredictor creates a predictor over the given held-out entries.
func NewPredictor(test []sparse.Entry, clampMin, clampMax float64) *Predictor {
	nc := (len(test) + EvalChunk - 1) / EvalChunk
	return &Predictor{
		Test:       test,
		sum:        make([]float64, len(test)),
		sumSq:      make([]float64, len(test)),
		partSample: make([]float64, nc),
		partAvg:    make([]float64, nc),
		clampMin:   clampMin,
		clampMax:   clampMax,
	}
}

// Interval is one held-out prediction with its posterior uncertainty.
type Interval struct {
	Row, Col int32
	Actual   float64
	// Mean is the posterior-mean prediction; Std its predictive standard
	// deviation (sample spread of the chain plus observation noise).
	Mean, Std float64
}

// Intervals returns the posterior predictive summary of every test entry
// (nil until at least one post-burn-in sample was collected).
func (p *Predictor) Intervals() []Interval {
	if p.nSamples == 0 {
		return nil
	}
	out := make([]Interval, len(p.Test))
	n := float64(p.nSamples)
	for t, e := range p.Test {
		mean := p.sum[t] / n
		variance := p.sumSq[t]/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		if p.Alpha > 0 {
			variance += 1 / p.Alpha
		}
		out[t] = Interval{
			Row: e.Row, Col: e.Col, Actual: e.Val,
			Mean: mean, Std: math.Sqrt(variance),
		}
	}
	return out
}

// Snapshot exposes the running posterior accumulators for checkpointing:
// the per-entry prediction sums, squared sums, and the sample count. The
// returned slices alias internal state — copy before mutating.
func (p *Predictor) Snapshot() (sum, sumSq []float64, nSamples int) {
	return p.sum, p.sumSq, p.nSamples
}

// Restore overwrites the running accumulators from a checkpoint. The
// slices must match this predictor's test-set length.
func (p *Predictor) Restore(sum, sumSq []float64, nSamples int) error {
	if len(sum) != len(p.Test) || len(sumSq) != len(p.Test) {
		return fmt.Errorf("predictor restore: accumulator length %d/%d, test set %d",
			len(sum), len(sumSq), len(p.Test))
	}
	copy(p.sum, sum)
	copy(p.sumSq, sumSq)
	p.nSamples = nSamples
	return nil
}

// clamp applies the configured rating-range clip.
func (p *Predictor) clamp(v float64) float64 {
	if p.clampMax > p.clampMin {
		v = math.Min(p.clampMax, math.Max(p.clampMin, v))
	}
	return v
}

// NumChunks returns the fixed chunk count of this predictor's reduction.
func (p *Predictor) NumChunks() int { return len(p.partSample) }

// PartialUpdatePar scores the current sample (U, V) over this
// predictor's test entries and returns raw squared-error sums instead of
// RMSE: (Σ sample error², Σ posterior-mean error², #entries). The
// distributed engine calls this per rank and combines partials with a
// deterministic allreduce. If collect is true the sample is folded into
// the running posterior mean first. When no sample has been collected
// yet, seAvg repeats seSample.
//
// The summation runs through the fixed EvalChunk tree, its chunk loop
// handed to runAll, which must invoke run(c) exactly once for every chunk
// c in [0, nChunks) — in any order, on any goroutines — and return only
// after all invocations complete; engines pass a parallel-for over their
// pool here (nil runs the chunks sequentially, inline). Chunks touch
// disjoint predictor state and partials are combined in ascending chunk
// order after runAll returns, so the result is bit-identical for any
// schedule.
func (p *Predictor) PartialUpdatePar(u, v *la.Matrix, collect bool,
	runAll func(nChunks int, run func(c int))) (seSample, seAvg, n float64) {
	if collect {
		p.nSamples++
	}
	inv := 0.0
	if p.nSamples > 0 {
		inv = 1 / float64(p.nSamples)
	}
	nc := p.NumChunks()
	if runAll == nil {
		// Method call, not a closure: the inline path stays allocation-free.
		for c := 0; c < nc; c++ {
			p.runChunk(c, u, v, collect, inv)
		}
	} else {
		runAll(nc, func(c int) { p.runChunk(c, u, v, collect, inv) })
	}
	for c := 0; c < nc; c++ {
		seSample += p.partSample[c]
		seAvg += p.partAvg[c]
	}
	if p.nSamples == 0 {
		seAvg = seSample
	}
	return seSample, seAvg, float64(len(p.Test))
}

// runChunk scores chunk c — test entries [c*EvalChunk, (c+1)*EvalChunk) —
// into the chunk partials. Chunks touch disjoint entries and partial
// slots, so any set of chunks may run concurrently.
func (p *Predictor) runChunk(c int, u, v *la.Matrix, collect bool, inv float64) {
	lo := c * EvalChunk
	hi := lo + EvalChunk
	if hi > len(p.Test) {
		hi = len(p.Test)
	}
	var ss, sa float64
	for t := lo; t < hi; t++ {
		e := p.Test[t]
		pred := p.clamp(la.Dot(u.Row(int(e.Row)), v.Row(int(e.Col))))
		d := pred - e.Val
		ss += d * d
		if collect {
			p.sum[t] += pred
			p.sumSq[t] += pred * pred
		}
		if p.nSamples > 0 {
			da := p.sum[t]*inv - e.Val
			sa += da * da
		}
	}
	p.partSample[c] = ss
	p.partAvg[c] = sa
}

// Update scores the current sample (U, V): it returns the RMSE of this
// sample alone and, if collect is true, folds the sample into the running
// posterior mean and returns its RMSE too; otherwise avgRMSE repeats
// sampleRMSE.
func (p *Predictor) Update(u, v *la.Matrix, collect bool) (sampleRMSE, avgRMSE float64) {
	return p.UpdatePar(u, v, collect, nil)
}

// UpdatePar is Update with the chunk loop handed to runAll (see
// PartialUpdatePar); the returned RMSEs are bit-identical to Update's for
// any conforming runAll.
func (p *Predictor) UpdatePar(u, v *la.Matrix, collect bool,
	runAll func(nChunks int, run func(c int))) (sampleRMSE, avgRMSE float64) {
	if len(p.Test) == 0 {
		return math.NaN(), math.NaN()
	}
	seSample, seAvg, n := p.PartialUpdatePar(u, v, collect, runAll)
	return math.Sqrt(seSample / n), math.Sqrt(seAvg / n)
}
