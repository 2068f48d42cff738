package dist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/sched"
)

// ghost_test.go pins the ghost exchange: one streaming loop at every
// thread count (overlap, bit-identity, unwinding on a dead peer) and
// decoders that turn whatever crosses the fabric into rows or errors.

// TestHybridRankOverlapsSends: a rank with a thread pool streams its
// finished rows while the other grains are still being drawn, exactly as
// a single-threaded rank does — so sends are in flight during compute and
// the small buffers flush many times per phase.
func TestHybridRankOverlapsSends(t *testing.T) {
	prob := problem(t, 21)
	cfg := testConfig()
	_, stats, err := RunInProc(cfg, prob, Options{Ranks: 2, ThreadsPerRank: 2, BufferSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.OverlapTime <= 0 || s.OverlapTime > s.ComputeTime {
			t.Fatalf("rank %d: overlap %v of %v compute, want 0 < overlap <= compute", s.Rank, s.OverlapTime, s.ComputeTime)
		}
		if s.Flushes <= 1 {
			t.Fatalf("rank %d: %d flushes with 1-KiB buffers", s.Rank, s.Flushes)
		}
	}
}

// TestHybridMatrixBitIdentical crosses thread counts with buffer sizes
// and rank counts: concurrent grains append to shared coalescers whose
// boundaries fall anywhere, and none of it may move a sampled bit.
func TestHybridMatrixBitIdentical(t *testing.T) {
	prob := problem(t, 22)
	cfg := testConfig()
	for _, ranks := range []int{2, 3} {
		want, _, err := RunInProc(cfg, prob, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 3} {
			for _, buf := range []int{-1, 256, DefaultBufferSize} {
				t.Run(fmt.Sprintf("ranks%d-threads%d-buf%d", ranks, threads, buf), func(t *testing.T) {
					got, stats, err := RunInProc(cfg, prob, Options{Ranks: ranks, ThreadsPerRank: threads, BufferSize: buf})
					if err != nil {
						t.Fatal(err)
					}
					assertBitEqual(t, got, want, cfg.Iters)
					var sent, recv int64
					for _, s := range stats {
						sent += s.ItemsSent
						recv += s.GhostsRecv
						if buf < 0 && int64(s.Flushes) != s.ItemsSent {
							t.Fatalf("rank %d: %d flushes for %d unbuffered rows", s.Rank, s.Flushes, s.ItemsSent)
						}
					}
					if sent == 0 || sent != recv {
						t.Fatalf("ghost accounting broken: sent %d recv %d", sent, recv)
					}
				})
			}
		}
	}
}

// TestUpdateSideLatchesSendFailure kills the rank's own endpoint, so the
// first send of the phase fails inside whichever goroutine runs that
// grain: the phase must still draw every owned item (no worker is left
// mid-grain), skip the remaining sends, and return the failure.
func TestUpdateSideLatchesSendFailure(t *testing.T) {
	prob := problem(t, 23)
	cfg := testConfig()
	for _, threads := range []int{1, 2} {
		opt := Options{Ranks: 2, ThreadsPerRank: threads, BufferSize: -1}.normalized()
		plan, test := BuildPlan(prob, opt)
		fb := comm.NewFabric(2)
		nd, err := NewNode(fb.Comms()[0], cfg, plan, prob.Rt, test, opt)
		if err != nil {
			t.Fatal(err)
		}
		if threads > 1 {
			nd.pool = sched.NewPool(threads)
		}
		fb.Kill(0)
		err = nd.updateSide(0, core.SideV)
		var rf *comm.RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 0 {
			t.Fatalf("threads=%d: updateSide returned %v, want rank 0's RankFailedError", threads, err)
		}
		lo, hi := nd.owned(core.SideV)
		kc := nd.s.KernelCounts()
		if drawn := kc[0] + kc[1] + kc[2]; drawn != int64(hi-lo) {
			t.Fatalf("threads=%d: %d of %d owned items drawn before the error surfaced", threads, drawn, hi-lo)
		}
		if nd.pool != nil {
			nd.pool.Close()
		}
		fb.Close()
	}
}

// TestHybridRankUnwindsWhenPeerDiesMidPhase kills rank 1 while per-item
// ghost messages are streaming (the kill is triggered by rank 0's receive
// counter, which only moves that fast inside a phase): at 2 threads per
// rank the victim's workers hit failing sends mid-sweep, and the
// survivor — whose own sends to the dead rank vanish — must come back
// with a RankFailedError from the detector, not hang in the ghost wait.
func TestHybridRankUnwindsWhenPeerDiesMidPhase(t *testing.T) {
	prob := problem(t, 24)
	cfg := testConfig()
	cfg.Iters = 200 // far more than the kill needs; the run never finishes
	opt := Options{Ranks: 2, ThreadsPerRank: 2, BufferSize: -1, SuspicionTimeout: 300 * time.Millisecond}.normalized()
	fb := comm.NewFabric(2)
	defer fb.Close()

	src := sourceOf(t, prob)
	finished := make(chan []error, 1)
	go func() {
		_, _, errs := runRound(cfg, src, nil, opt, fb.Comms())
		finished <- errs
	}()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for fb.Comms()[0].Stats().MsgsRecv < 500 {
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
		fb.Kill(1)
	}()

	select {
	case errs := <-finished:
		var rf *comm.RankFailedError
		if !errors.As(errs[0], &rf) || rf.Rank != 1 {
			t.Fatalf("survivor returned %v, want a RankFailedError naming rank 1", errs[0])
		}
		if errs[1] == nil {
			t.Fatal("the killed rank finished its run")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ranks still blocked 30 s after the kill")
	}
}

// ghostFrame builds a raw frame of records (idx, K copies of val).
func ghostFrame(k int, val float64, idxs ...int) []byte {
	row := make([]float64, k)
	for i := range row {
		row[i] = val
	}
	var frame []byte
	rec := make([]byte, ghostRecLen(k))
	for _, idx := range idxs {
		encodeGhost(rec, idx, row)
		frame = append(frame, rec...)
	}
	return frame
}

// TestGhostFramesAreValidated injects one raw frame from rank 1 under the
// first movie phase's tag before the ranks start, so it is the first
// ghost message rank 0 sees: each malformed frame must come back from
// rank 0's Run as an error naming the sender — not a panic, a dropped
// tail or a silently overwritten row.
func TestGhostFramesAreValidated(t *testing.T) {
	prob := problem(t, 25)
	cfg := testConfig()
	opt := Options{Ranks: 2}.normalized()
	plan, _ := BuildPlan(prob, opt)
	src := sourceOf(t, prob)
	_, n := prob.Dims()
	theirs := plan.ColBounds[1] // first movie rank 1 owns
	for _, tc := range []struct {
		name, want string
		frame      []byte
	}{
		{"partial record", "whole number", append(ghostFrame(cfg.K, 1, theirs), 1, 2, 3)},
		{"index outside the side", "outside", ghostFrame(cfg.K, 1, theirs, n+5)},
		{"row the sender does not own", "owned by rank 0", ghostFrame(cfg.K, 1, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab := comm.NewFabric(2)
			defer fab.Close()
			comms := fab.Comms()
			if err := comms[1].SendE(0, itemTag(0, core.SideV), tc.frame); err != nil {
				t.Fatal(err)
			}
			peerDone := make(chan struct{})
			go func() {
				defer close(peerDone)
				RunRank(comms[1], cfg, src, nil, opt)
			}()
			_, _, err := RunRank(comms[0], cfg, src, nil, opt)
			// Rank 1 is waiting for a rank that has given up; unwind it.
			comms[1].Fail(errors.New("test over"))
			<-peerDone
			if err == nil || !strings.Contains(err.Error(), "from rank 1") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run returned %v, want a ghost-frame error from rank 1 mentioning %q", err, tc.want)
			}
		})
	}
}

// TestGatherRejectsMismatchedBlobs plays a peer whose allgather blobs
// have the wrong length for the rows (or intervals) they stand for.
func TestGatherRejectsMismatchedBlobs(t *testing.T) {
	prob := problem(t, 26)
	cfg := testConfig()
	opt := Options{Ranks: 2}.normalized()
	plan, test := BuildPlan(prob, opt)
	fab := comm.NewFabric(2)
	defer fab.Close()
	nd, err := NewNode(fab.Comms()[0], cfg, plan, prob.Rt, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		peer := fab.Comms()[1]
		peer.AllgatherE(make([]byte, 8*cfg.K+1))          // not this rank's rows × K
		peer.AllgatherE(make([]byte, 8*intervalRecLen-1)) // not a whole interval
	}()
	if err := nd.gatherSide(nd.s.U, plan.RowBounds); err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("gatherSide returned %v, want a length error naming rank 1", err)
	}
	if _, err := nd.gatherIntervals(); err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("gatherIntervals returned %v, want a record error naming rank 1", err)
	}
}

// FuzzGhostRecords: whatever the frame and whoever sent it, decodeGhosts
// returns an error or consumed every byte, and either way wrote only
// rows the sender owns — never a panic (an index outside the matrix
// would be one).
func FuzzGhostRecords(f *testing.F) {
	const k, rows = 3, 8
	owner := []int32{0, 0, 0, 1, 1, 1, 2, 2}
	f.Add(ghostFrame(k, 2.5, 3, 5, 4), uint8(1))
	f.Add(ghostFrame(k, 2.5, 6, 7, 6), uint8(2))
	f.Add(ghostFrame(k, 2.5, 3)[:ghostRecLen(k)-1], uint8(1)) // short of a record
	f.Add(ghostFrame(k, 2.5, 3, rows), uint8(1))              // index outside the side
	f.Add(ghostFrame(k, 2.5, 3, 0), uint8(1))                 // rank 0's row from rank 1
	f.Add(ghostFrame(k, 2.5, 1<<32-1), uint8(0))
	f.Add([]byte{}, uint8(3))
	const untouched = 0x7ff8_0000_dead_beef // a NaN no frame is seeded with
	f.Fuzz(func(t *testing.T, data []byte, sender uint8) {
		src := int(sender % 4) // rank 3 owns nothing
		dst := la.NewMatrix(rows, k)
		for i := range dst.Data {
			dst.Data[i] = math.Float64frombits(untouched)
		}
		n, err := decodeGhosts(dst, owner, src, data)
		if err == nil && n*ghostRecLen(k) != len(data) {
			t.Fatalf("accepted %d bytes as %d records", len(data), n)
		}
		for i := 0; i < rows; i++ {
			if int(owner[i]) == src {
				continue
			}
			for _, x := range dst.Row(i) {
				if math.Float64bits(x) != untouched {
					t.Fatalf("frame from rank %d wrote row %d, owned by rank %d (err %v)", src, i, owner[i], err)
				}
			}
		}
	})
}

// FuzzDecodeIntervals: a peer's interval blob is an error or a list that
// encodeIntervals turns back into the same bytes — so nothing is rounded,
// wrapped or dropped on the way in (a position that is not a whole
// non-negative int32 is an error, not whatever the conversion gives).
func FuzzDecodeIntervals(f *testing.F) {
	valid := encodeIntervals([]core.Interval{
		{Row: 0, Col: 7, Actual: 3.5, Mean: 3.25, Std: 0.5},
		{Row: math.MaxInt32, Col: 1, Actual: -1, Mean: math.Inf(1), Std: math.NaN()},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                                                    // not a whole record
	f.Add(comm.EncodeFloat64s([]float64{2.5, 1, 0, 0, 0}))                         // fractional row
	f.Add(comm.EncodeFloat64s([]float64{1, -3, 0, 0, 0}))                          // negative column
	f.Add(comm.EncodeFloat64s([]float64{math.NaN(), 1, 0, 0, 0}))                  // NaN row
	f.Add(comm.EncodeFloat64s([]float64{1, 1 << 40, 0, 0, 0}))                     // column past int32
	f.Add(comm.EncodeFloat64s([]float64{math.Copysign(0, -1), 0, 0, 0, 0}))        // -0 re-encodes as +0
	f.Add(comm.EncodeFloat64s([]float64{1, 2, math.Float64frombits(1), 1e308, 0})) // denormal, huge: kept
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ivs, err := decodeIntervals(data)
		if err != nil {
			return
		}
		if again := encodeIntervals(ivs); !bytes.Equal(again, data) {
			t.Fatalf("%d bytes decoded to %d intervals that re-encode to different bytes", len(data), len(ivs))
		}
	})
}
