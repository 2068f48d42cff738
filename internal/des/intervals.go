package des

import "sort"

// Interval-set arithmetic for the compute / communicate / "both"
// (overlapped) breakdown of Figure 5: SimulateCluster records each
// rank's compute-busy and communication-busy spans of virtual time and
// overlapBreakdown splits the iteration window between them.

// interval is a half-open time interval [Start, End) in arbitrary units
// (the discrete-event simulator uses seconds of virtual time).
type interval struct {
	Start, End float64
}

// intervalSet is a set of non-overlapping, sorted intervals. The zero
// value is an empty set.
type intervalSet struct {
	ivs []interval
}

// Add inserts [start, end), merging with existing intervals as needed.
func (s *intervalSet) Add(start, end float64) {
	if end <= start {
		return
	}
	s.ivs = append(s.ivs, interval{start, end})
	s.normalize()
}

// addAll inserts every interval of other.
func (s *intervalSet) addAll(other *intervalSet) {
	s.ivs = append(s.ivs, other.ivs...)
	s.normalize()
}

func (s *intervalSet) normalize() {
	if len(s.ivs) < 2 {
		return
	}
	sort.Slice(s.ivs, func(i, j int) bool { return s.ivs[i].Start < s.ivs[j].Start })
	out := s.ivs[:1]
	for _, iv := range s.ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
		} else {
			out = append(out, iv)
		}
	}
	s.ivs = out
}

// Total returns the summed length of all intervals.
func (s *intervalSet) Total() float64 {
	var t float64
	for _, iv := range s.ivs {
		t += iv.End - iv.Start
	}
	return t
}

// intersect returns the set intersection of a and b.
func intersect(a, b *intervalSet) *intervalSet {
	out := &intervalSet{}
	i, j := 0, 0
	for i < len(a.ivs) && j < len(b.ivs) {
		lo := max(a.ivs[i].Start, b.ivs[j].Start)
		hi := min(a.ivs[i].End, b.ivs[j].End)
		if lo < hi {
			out.ivs = append(out.ivs, interval{lo, hi})
		}
		if a.ivs[i].End < b.ivs[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Breakdown is the Figure 5 decomposition of one node's iteration time.
type Breakdown struct {
	// ComputeOnly is time spent computing with no communication in
	// flight; CommunicateOnly the reverse; Both is overlapped time; Idle
	// is the remainder of the wall-clock window.
	ComputeOnly, CommunicateOnly, Both, Idle float64
}

// overlapBreakdown decomposes a wall-clock window of the given length into
// the four Figure 5 categories from a node's compute-busy and
// communication-busy interval sets.
func overlapBreakdown(compute, comm *intervalSet, window float64) Breakdown {
	both := intersect(compute, comm).Total()
	union := &intervalSet{}
	union.addAll(compute)
	union.addAll(comm)
	b := Breakdown{
		ComputeOnly:     compute.Total() - both,
		CommunicateOnly: comm.Total() - both,
		Both:            both,
	}
	b.Idle = window - union.Total()
	if b.Idle < 0 {
		b.Idle = 0
	}
	return b
}

// Fractions normalizes the breakdown to fractions of the window (the unit
// of Figure 5's y-axis).
func (b Breakdown) Fractions() Breakdown {
	t := b.ComputeOnly + b.CommunicateOnly + b.Both + b.Idle
	if t == 0 {
		return b
	}
	return Breakdown{
		ComputeOnly:     b.ComputeOnly / t,
		CommunicateOnly: b.CommunicateOnly / t,
		Both:            b.Both / t,
		Idle:            b.Idle / t,
	}
}
