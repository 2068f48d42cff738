package des

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntervalSetAddMerge(t *testing.T) {
	var s intervalSet
	s.Add(0, 1)
	s.Add(2, 3)
	if len(s.ivs) != 2 || s.Total() != 2 {
		t.Fatalf("disjoint: len=%d total=%v", len(s.ivs), s.Total())
	}
	s.Add(0.5, 2.5) // bridges both
	if len(s.ivs) != 1 || s.Total() != 3 {
		t.Fatalf("merged: len=%d total=%v", len(s.ivs), s.Total())
	}
}

func TestIntervalSetIgnoresEmpty(t *testing.T) {
	var s intervalSet
	s.Add(1, 1)
	s.Add(2, 1)
	if len(s.ivs) != 0 || s.Total() != 0 {
		t.Fatal("empty/inverted intervals must be ignored")
	}
}

func TestIntervalSetTouchingMerges(t *testing.T) {
	var s intervalSet
	s.Add(0, 1)
	s.Add(1, 2)
	if len(s.ivs) != 1 || s.Total() != 2 {
		t.Fatalf("touching intervals should merge: len=%d", len(s.ivs))
	}
}

func TestIntersect(t *testing.T) {
	var a, b intervalSet
	a.Add(0, 10)
	b.Add(5, 15)
	x := intersect(&a, &b)
	if x.Total() != 5 {
		t.Fatalf("intersection total %v, want 5", x.Total())
	}
	var c intervalSet
	c.Add(20, 30)
	if intersect(&a, &c).Total() != 0 {
		t.Fatal("disjoint intersection must be empty")
	}
}

func TestIntersectMultiple(t *testing.T) {
	var a, b intervalSet
	a.Add(0, 2)
	a.Add(4, 6)
	a.Add(8, 10)
	b.Add(1, 9)
	x := intersect(&a, &b)
	// [1,2) + [4,6) + [8,9) = 4
	if x.Total() != 4 {
		t.Fatalf("intersection total %v, want 4", x.Total())
	}
}

func TestIntersectCommutative(t *testing.T) {
	f := func(raw [8]float64) bool {
		var a, b intervalSet
		for i := 0; i < 4; i += 2 {
			lo, hi := clean(raw[i]), clean(raw[i+1])
			if lo > hi {
				lo, hi = hi, lo
			}
			a.Add(lo, hi)
		}
		for i := 4; i < 8; i += 2 {
			lo, hi := clean(raw[i]), clean(raw[i+1])
			if lo > hi {
				lo, hi = hi, lo
			}
			b.Add(lo, hi)
		}
		return math.Abs(intersect(&a, &b).Total()-intersect(&b, &a).Total()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// clean maps arbitrary floats into a sane interval coordinate.
func clean(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(math.Abs(x), 100)
}

func TestOverlapBreakdown(t *testing.T) {
	var compute, comm intervalSet
	compute.Add(0, 6) // computing 0..6
	comm.Add(4, 9)    // communicating 4..9
	b := overlapBreakdown(&compute, &comm, 10)
	if b.Both != 2 {
		t.Fatalf("both = %v, want 2", b.Both)
	}
	if b.ComputeOnly != 4 || b.CommunicateOnly != 3 {
		t.Fatalf("compute-only %v / comm-only %v, want 4 / 3", b.ComputeOnly, b.CommunicateOnly)
	}
	if b.Idle != 1 {
		t.Fatalf("idle = %v, want 1", b.Idle)
	}
}

func TestBreakdownFractions(t *testing.T) {
	b := Breakdown{ComputeOnly: 4, CommunicateOnly: 3, Both: 2, Idle: 1}
	f := b.Fractions()
	sum := f.ComputeOnly + f.CommunicateOnly + f.Both + f.Idle
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %v", sum)
	}
	if f.ComputeOnly != 0.4 {
		t.Fatalf("compute fraction %v, want 0.4", f.ComputeOnly)
	}
	zero := Breakdown{}
	if zero.Fractions() != zero {
		t.Fatal("zero breakdown must normalize to itself")
	}
}

func TestOverlapNeverExceedsWindow(t *testing.T) {
	f := func(raw [10]float64) bool {
		var compute, comm intervalSet
		for i := 0; i < 4; i += 2 {
			lo, hi := clean(raw[i]), clean(raw[i+1])
			if lo > hi {
				lo, hi = hi, lo
			}
			compute.Add(lo, hi)
		}
		for i := 4; i < 8; i += 2 {
			lo, hi := clean(raw[i]), clean(raw[i+1])
			if lo > hi {
				lo, hi = hi, lo
			}
			comm.Add(lo, hi)
		}
		b := overlapBreakdown(&compute, &comm, 100)
		if b.Both < 0 || b.ComputeOnly < -1e-12 || b.CommunicateOnly < -1e-12 || b.Idle < 0 {
			return false
		}
		return b.Both <= compute.Total()+1e-12 && b.Both <= comm.Total()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
