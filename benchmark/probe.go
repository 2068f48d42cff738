package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference box is a shared virtual machine: for half a minute or
// several minutes at a time, whatever else runs on the host makes every
// CPU-bound piece of work 10–40% slower, the benchmark's fixed work and
// the programs under test alike. No median inside a 30-s run can remove
// that: of two sets of ten runs of identical code the medians differed by
// up to 18%, and the quartiles of one set lay up to 38% apart. So every
// timed sample of the three measured stages is bracketed by a speed probe
// — a fixed piece of arithmetic and memory traffic that uses no code of
// the repository, so that no change under test can move it — and is
// divided by how much slower than probeRefMs the probe ran around it.
// That brought the same spreads to a third to a half (README, "How the
// bounds were derived"). The end-to-end timings of those stages are
// thereby in seconds of the quiet reference box; bench.machine_factor
// reports the median factor of a run, and the detail file keeps every raw
// sample beside its factor.
const (
	// probeRefMs is what one burst takes on the reference box between two
	// Train calls when nothing else runs on the host. (Back to back, with
	// warm caches, a burst takes 3.5 ms; what matters is that the value is
	// pinned, not which state of the machine it stands for.)
	probeRefMs = 4.5
	// Three bursts, of which the median counts: a burst is short, so one
	// interrupt would otherwise pass for a slow machine.
	probeBursts = 3
	probeRows   = 3072    // a 768-KiB panel of 32-vectors: resident in L2
	probeStream = 3 << 19 // 12 MiB of float64 per goroutine: beyond L2
)

type prober struct {
	panel, stream [2][]float64
	acc           [2][]float64
}

func newProber() *prober {
	p := &prober{}
	for g := range p.panel {
		p.panel[g] = make([]float64, probeRows*latentK)
		for i := range p.panel[g] {
			p.panel[g][i] = float64(i%7) * 0.25
		}
		p.stream[g] = make([]float64, probeStream)
		for i := range p.stream[g] {
			p.stream[g][i] = float64(i & 15)
		}
		p.acc[g] = make([]float64, latentK*latentK+1)
	}
	return p
}

// burst is the probe's fixed work for one goroutine: rank-one updates of
// a K×K matrix over the panel (what an item update mostly does), then a
// pass over the stream (what scoring a catalogue mostly does).
//
//go:noinline
func burst(panel, stream, acc []float64) {
	const k = latentK
	for r := 0; r < probeRows; r++ {
		row := panel[r*k : r*k+k]
		for i, a := range row {
			out := acc[i*k : i*k+k]
			for j := range out {
				out[j] += a * row[j]
			}
		}
	}
	s := 0.0
	for _, x := range stream {
		s += x
	}
	acc[k*k] = s
}

// factor runs the probe on both cores at once and returns how much
// slower than on the quiet reference box it ran: 1.2 means that the
// machine is, just now, a fifth slower.
func (p *prober) factor() float64 {
	// The collector would otherwise work through the garbage of the sample
	// just measured on one of the two cores while the probe runs.
	runtime.GC()
	var ms [probeBursts]float64
	for b := range ms {
		var wg sync.WaitGroup
		var took [2]time.Duration
		for g := range took {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				t := time.Now()
				burst(p.panel[g], p.stream[g], p.acc[g])
				took[g] = time.Since(t)
			}(g)
		}
		wg.Wait()
		ms[b] = (took[0] + took[1]).Seconds() * 1e3 / 2
	}
	return median(ms[:]) / probeRefMs
}

// timed is one timed sample with the mean of the machine factors
// measured just before and just after it.
type timed struct {
	Raw    float64 `json:"raw"`
	Factor float64 `json:"factor"`
}

// series collects consecutive timed samples with a probe between them.
type series struct {
	p       *prober
	last    float64
	Samples []timed `json:"samples"`
}

func (p *prober) series() *series { return &series{p: p, last: p.factor()} }

// add records a sample measured since the previous probe, probes again,
// and returns the sample's factor.
func (s *series) add(raw float64) float64 {
	f := s.p.factor()
	s.Samples = append(s.Samples, timed{Raw: raw, Factor: (s.last + f) / 2})
	s.last = f
	return s.Samples[len(s.Samples)-1].Factor
}

// atRefSpeed returns every sample as it would have been on the quiet
// reference box: a duration divided, a rate multiplied, by its factor.
func (s *series) atRefSpeed(rate bool) []float64 {
	out := make([]float64, len(s.Samples))
	for i, t := range s.Samples {
		out[i] = t.Raw / t.Factor
		if rate {
			out[i] = t.Raw * t.Factor
		}
	}
	return out
}

func (s *series) factors() []float64 {
	out := make([]float64, len(s.Samples))
	for i, t := range s.Samples {
		out[i] = t.Factor
	}
	return out
}
