package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark's own code around its calls into the program's layers;
// nothing inside the program is instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	Run      uint64 `json:"run"` // the run's seed
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory and writes them out when the
// benchmark ends.
type tracer struct {
	mu       sync.Mutex
	workload string
	run      uint64
	t0       time.Time
	spans    []span
	counts   map[string]int64
}

func newTracer(workload string, run uint64) *tracer {
	return &tracer{workload: workload, run: run, t0: time.Now(), counts: map[string]int64{}}
}

// start opens a span under parent (0 for a root span) and returns its
// id. A nil tracer records nothing: the untraced run calls the same code
// with tracing off.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Run: t.run, Name: name, StartNs: now, EndNs: -1})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	return time.Duration(s.EndNs - s.StartNs)
}

// add records an already-measured interval (used for client request
// spans, whose stamps are taken on the generator's hot path).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Run: t.run, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	return id
}

// count adds n to a named counter, recorded at the same boundaries as
// the spans.
func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may overlap
// each other or stick out of the parent; covered time is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.EndNs - s.StartNs) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNs, parent.StartNs), min(c.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.StartNs
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// coverage is the share of a span's duration that its children cover:
// what is left after its self time.
func coverage(spans []span, id int) float64 {
	s := spans[id-1] // ids are positions, counted from 1
	if d := s.EndNs - s.StartNs; d > 0 {
		return 1 - float64(selfTimes(spans)[id])/float64(d)
	}
	return 0
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps spans and counts as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	doc := struct {
		Workload string           `json:"workload"`
		Run      uint64           `json:"run"`
		Spans    []span           `json:"spans"`
		Counts   map[string]int64 `json:"counts"`
	}{t.workload, t.run, t.spans, t.counts}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
