package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sparse"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Error("p99 of 999 samples has only nine beyond it and must not be supported")
	}
	if v, ok := percentile(xs[:100], 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", v, ok)
	}
	if v, ok := percentile(nil, 50); v != 0 || ok {
		t.Error("empty sample must yield 0, unsupported")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	if q1, q2, q3 := quartiles([]float64{1, 3}); q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("two-value quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(s-27.5/13.5) > 1e-15 {
		t.Errorf("spread = %v", s)
	}
}

func TestScheduleIsDeterministicInTheSeed(t *testing.T) {
	a := buildRequests(7, 2, 2000, 500, 300, 900)
	b := buildRequests(7, 2, 2000, 500, 300, 900)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and stage gave different schedules")
	}
	if reflect.DeepEqual(a, buildRequests(8, 2, 2000, 500, 300, 900)) {
		t.Fatal("another seed gave the same schedule")
	}
	if reflect.DeepEqual(a, buildRequests(7, 3, 2000, 500, 300, 900)) {
		t.Fatal("another stage gave the same schedule")
	}
	var counts [numRoutes]int
	for i, q := range a {
		counts[q.route]++
		if i > 0 && q.due < a[i-1].due {
			t.Fatal("arrival times not ascending")
		}
		if q.route == routeFoldin {
			if len(q.rated) != foldinRatings || !sort.SliceIsSorted(q.rated, func(i, j int) bool { return q.rated[i] < q.rated[j] }) {
				t.Fatalf("fold-in items %v", q.rated)
			}
		}
	}
	if counts[routePredict] < 1300 || counts[routeRecommend] < 400 || counts[routeFoldin] < 60 {
		t.Errorf("route mix %v is far from 70/25/5", counts)
	}
	if got := a[len(a)-1].due.Seconds(); got < 3.5 || got > 4.5 {
		t.Errorf("2000 arrivals at 500/s end at %.2fs", got)
	}

	w, _ := workloadByName("train-dense-mc")
	base := datagen.Generate(datagen.Tiny(1)).R
	if !reflect.DeepEqual(roundRatings(w, 7, 1, base), roundRatings(w, 7, 1, base)) {
		t.Fatal("same seed and round gave different ratings")
	}
	r0 := roundRatings(w, 7, 0, base)
	if len(r0) != w.appends || len(r0[0]) != w.appendSize || int(r0[0][0].Row) != base.M {
		t.Fatalf("round 0: %d batches of %d, first user %d", len(r0), len(r0[0]), r0[0][0].Row)
	}
}

func TestSelfTimeWithNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},    // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120},   // sticks out of root
		{ID: 5, Parent: 2, Name: "a1", StartNs: 15, EndNs: 25},   // nested
		{ID: 6, Parent: 2, Name: "a2", StartNs: 15, EndNs: 20},   // inside a1's interval
		{ID: 7, Parent: 0, Name: "other", StartNs: 0, EndNs: 50}, // second root
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10), 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 5, 7: 50}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if c := coverage(spans, 1); c != 0.6 {
		t.Errorf("coverage of root = %v, want 0.6", c)
	}

	tr := newTracer("w", 1)
	root := tr.start("root", 0)
	kid := tr.start("kid", root)
	tr.end(kid)
	tr.end(root)
	tr.count("ops", 2)
	tr.count("ops", 3)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[0].EndNs < got[1].EndNs || tr.counts["ops"] != 5 {
		t.Errorf("recorded %+v, counts %v", got, tr.counts)
	}
	var none *tracer
	if none.start("x", 0) != 0 || none.end(0) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestSequentialDriverEqualsSampler(t *testing.T) {
	ds := datagen.Generate(datagen.Tiny(3))
	train, test := sparse.SplitTrainTest(ds.R, testFrac, 3)
	prob := core.NewProblem(train, test)
	cc := core.DefaultConfig()
	cc.K, cc.Iters, cc.Burnin, cc.Seed = 8, 6, 3, 3
	cc.MomentGroupsU = []int{0, prob.R.M / 2, prob.R.M} // as the distributed workload sets them
	s, err := core.NewSampler(cc, prob)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run().FinalRMSE()
	for _, tr := range []*tracer{nil, newTracer("tiny", 3)} {
		got := drive(tr, cc, prob, s)
		if !got.identical || got.rmse != want {
			t.Errorf("driver (tracer %v): identical=%v RMSE %.17g, sampler %.17g", tr != nil, got.identical, got.rmse, want)
		}
		if tr != nil {
			if len(got.iterS) != cc.Iters || coverage(tr.snapshot(), got.root) < 0.9 {
				t.Errorf("%d iterations traced, chain coverage %v", len(got.iterS), coverage(tr.snapshot(), got.root))
			}
		}
	}
}

func TestSpeedProbe(t *testing.T) {
	s := series{Samples: []timed{{Raw: 2, Factor: 2}, {Raw: 3, Factor: 1.5}}}
	if got := s.atRefSpeed(false); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Errorf("durations at reference speed %v, want [1 2]", got)
	}
	if got := s.atRefSpeed(true); !reflect.DeepEqual(got, []float64{4, 4.5}) {
		t.Errorf("rates at reference speed %v, want [4 4.5]", got)
	}
	p := newProber()
	sr := p.series()
	first := sr.last
	f := sr.add(7)
	if len(sr.Samples) != 1 || sr.Samples[0].Raw != 7 || f != (first+sr.last)/2 || !(f > 0.2 && f < 20) {
		t.Errorf("sample %+v, factor %v between probes %v and %v", sr.Samples, f, first, sr.last)
	}
	// The probe is fixed work: two probers end on the same numbers.
	q := newProber()
	burst(q.panel[0], q.stream[0], q.acc[0])
	p.acc[1] = make([]float64, len(p.acc[1])) // the probes above accumulated into it
	burst(p.panel[1], p.stream[1], p.acc[1])
	if !reflect.DeepEqual(q.acc[0], p.acc[1]) {
		t.Error("two bursts over the same inputs differ")
	}
}

func TestCheckRanked(t *testing.T) {
	ok := []scoredItem{{Item: 4, Score: 3}, {Item: 9, Score: 2}, {Item: 1, Score: 2}}
	if err := checkRanked(ok, []int32{2, 5}, 3); err != nil {
		t.Error(err)
	}
	if checkRanked(ok, []int32{2, 9}, 3) == nil {
		t.Error("an excluded item must be rejected")
	}
	if checkRanked(ok[:2], nil, 3) == nil {
		t.Error("a short list must be rejected")
	}
	if checkRanked([]scoredItem{{Item: 1, Score: 1}, {Item: 2, Score: 2}}, nil, 2) == nil {
		t.Error("ascending scores must be rejected")
	}
}

// The contract's limits on BENCHMARK.json, and its agreement with the
// benchmark's own tables.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(ms []metricSpec, bounded bool) {
		for _, m := range ms {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("metric %q unit %q: bad or repeated", m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check(spec.EndToEnd, true)
	check(spec.PerLayer, false)
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || !name.MatchString(w.Name) {
			t.Errorf("workload %d: %q / %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestResultLineHasExactlyTheNamedMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]float64{"extra.metric": 1}
	for i, m := range spec.EndToEnd {
		measured[m.Name] = float64(i) + 0.5
	}
	picked, err := selectMetrics(spec.EndToEnd, measured)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(result{Correct: true, Attempted: 3, Metrics: picked})
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(back))
	for k := range back {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result keys %v", keys)
	}
	var ms map[string]metric
	if err := json.Unmarshal(back["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(spec.EndToEnd) {
		t.Errorf("%d metrics printed, %d named", len(ms), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if ms[m.Name].Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, ms[m.Name].Unit, m.Unit)
		}
	}
	delete(measured, spec.EndToEnd[0].Name)
	if _, err := selectMetrics(spec.EndToEnd, measured); err == nil {
		t.Error("a named metric that was not measured must be an error")
	}
}

func TestCompareSetsCountsBreaches(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{60, 140, 100, 70, 130, 100, 80, 120, 100, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	out, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	set := func(setup, rate, lat []float64) metricSet {
		return metricSet{"w": {"setup_s": setup, "rate": rate, "lat": lat}}
	}
	cases := []struct {
		name string
		a, b metricSet
		want int
	}{
		{"same", set(steady, steady, steady), set(steady, steady, steady), 0},
		{"set-up spread is not gated", set(wide, steady, steady), set(wide, steady, steady), 0},
		{"a wide spread is", set(steady, steady, wide), set(steady, steady, steady), 1},
		{"a lower rate is worse", set(steady, steady, steady), set(steady, scaled(steady, 0.8), steady), 1},
		{"a higher rate is not", set(steady, steady, steady), set(steady, scaled(steady, 1.3), steady), 0},
		{"slower set-up and latency", set(steady, steady, steady), set(scaled(steady, 1.2), steady, scaled(steady, 1.2)), 2},
	}
	for _, c := range cases {
		if got := compareSets(out, spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %d breaches, want %d", c.name, got, c.want)
		}
	}
}
