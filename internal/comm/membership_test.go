package comm

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// membership_test.go pins the epoch/view plane: view algebra, the
// coordinator state machine (idempotent joins, incarnation assignment,
// deterministic proposals, seal/adopt), the incarnation-keyed failure
// detector (a rejoined address must not be insta-convicted by stale
// verdicts against its previous life), and the TCP join handshake
// including its retry behavior when the request is lost mid-flight.

func TestViewShrinkKeepsOrderAndBumpsEpoch(t *testing.T) {
	v := InitialView([]string{"a", "b", "c", "d"})
	next := v.Shrink("b", "d")
	if next.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", next.Epoch)
	}
	if got := next.Addrs(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("survivors %v, want [a c]", got)
	}
	if v.Epoch != 0 || len(v.Members) != 4 {
		t.Fatal("Shrink mutated the original view")
	}
	if next.RankOf("b") != -1 || next.RankOf("c") != 1 {
		t.Fatalf("RankOf after shrink: b=%d c=%d", next.RankOf("b"), next.RankOf("c"))
	}
	if !next.Contains(Member{Addr: "a", Incarnation: 1}) || next.Contains(Member{Addr: "a", Incarnation: 2}) {
		t.Fatal("Contains must match the exact (address, incarnation) pair")
	}
}

func TestSuspicionTableCoversOlderIncarnations(t *testing.T) {
	tab := NewSuspicionTable()
	if tab.Convicted("x", 1) || tab.Highest("x") != 0 {
		t.Fatal("empty table must convict nothing")
	}
	tab.Convict("x", 3)
	tab.Convict("x", 2) // lower conviction must not regress the high-water mark
	if tab.Highest("x") != 3 {
		t.Fatalf("highest %d, want 3", tab.Highest("x"))
	}
	if !tab.Convicted("x", 2) || !tab.Convicted("x", 3) {
		t.Fatal("incarnations at or below the high-water mark are convicted")
	}
	if tab.Convicted("x", 4) || tab.Convicted("y", 1) {
		t.Fatal("newer incarnations and other addresses are not convicted")
	}
}

func TestMembershipJoinIdempotentAndSeal(t *testing.T) {
	m := NewMembership(InProcView(2), 0, NewSuspicionTable())
	mb, err := m.RequestJoin("joiner")
	if err != nil {
		t.Fatal(err)
	}
	if mb.Incarnation != 1 {
		t.Fatalf("first join at incarnation %d, want 1", mb.Incarnation)
	}
	// The retransmit case: the same address asking again (reply lost
	// mid-handshake) must get the identical pending member back, not a
	// second admission.
	dup, err := m.RequestJoin("joiner")
	if err != nil {
		t.Fatal(err)
	}
	if dup != mb {
		t.Fatalf("duplicate join got %+v, want %+v", dup, mb)
	}
	if !m.HasPending() {
		t.Fatal("join must be pending before the seal")
	}
	prop := m.Propose()
	if prop.Epoch != 1 || len(prop.Members) != 3 || prop.Members[2] != mb {
		t.Fatalf("proposal %+v, want epoch 1 with the joiner appended", prop)
	}
	m.Seal(prop, 6)
	if m.HasPending() {
		t.Fatal("seal must clear the admitted join")
	}
	if got := m.View(); got.Epoch != 1 || len(got.Members) != 3 {
		t.Fatalf("sealed view %+v", got)
	}
	// Now a member: the same request is rejected with the retryable
	// sentinel until a failure shrink deposes it.
	if _, err := m.RequestJoin("joiner"); !errors.Is(err, ErrAlreadyMember) {
		t.Fatalf("join of a current member got %v, want ErrAlreadyMember", err)
	}
}

func TestMembershipRejoinGetsFreshIncarnation(t *testing.T) {
	m := NewMembership(InProcView(3), 0, NewSuspicionTable())
	m.Adopt(m.View().Shrink("inproc-1"))
	mb, err := m.RequestJoin("inproc-1")
	if err != nil {
		t.Fatal(err)
	}
	if mb.Incarnation != 2 {
		t.Fatalf("rejoin at incarnation %d, want 2 (address was a member at 1)", mb.Incarnation)
	}
}

// TestMembershipHonorsForeignConvictions pins the coordinator-takeover
// case: the new coordinator never issued the dead rank's incarnation
// itself, but the suspicion table it inherited has the conviction, and a
// rejoiner must be issued an incarnation above it.
func TestMembershipHonorsForeignConvictions(t *testing.T) {
	tab := NewSuspicionTable()
	tab.Convict("ghost", 7)
	m := NewMembership(InProcView(2), 0, tab)
	mb, err := m.RequestJoin("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if mb.Incarnation != 8 {
		t.Fatalf("rejoin at incarnation %d, want 8 (table convicted 7)", mb.Incarnation)
	}
}

func TestMembershipMaxRanks(t *testing.T) {
	m := NewMembership(InProcView(2), 3, NewSuspicionTable())
	if _, err := m.RequestJoin("third"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RequestJoin("fourth"); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("join beyond max-ranks got %v, want a membership-is-full error", err)
	}
}

// TestMembershipProposalOrderIsArrivalIndependent pins that two joins
// racing the same epoch always land in the same ranks: the proposal
// sorts pending members, so whichever request reached the coordinator
// first is irrelevant.
func TestMembershipProposalOrderIsArrivalIndependent(t *testing.T) {
	propose := func(order []string) View {
		m := NewMembership(InProcView(2), 0, NewSuspicionTable())
		for _, a := range order {
			if _, err := m.RequestJoin(a); err != nil {
				t.Fatal(err)
			}
		}
		return m.Propose()
	}
	a := propose([]string{"alpha", "beta"})
	b := propose([]string{"beta", "alpha"})
	if len(a.Members) != 4 || a.Members[2].Addr != "alpha" || a.Members[3].Addr != "beta" {
		t.Fatalf("proposal %+v, want pending sorted by address", a)
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			t.Fatalf("proposals differ by arrival order: %+v vs %+v", a, b)
		}
	}
}

func TestWaitSealedWakesOnSeal(t *testing.T) {
	m := NewMembership(InProcView(1), 0, NewSuspicionTable())
	mb, err := m.RequestJoin("late")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.Seal(m.Propose(), 9)
	}()
	view, rank, resume, err := m.WaitSealed(mb, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != 1 || rank != 1 || resume != 9 {
		t.Fatalf("sealed (epoch %d, rank %d, resume %d), want (1, 1, 9)", view.Epoch, rank, resume)
	}
}

func TestWaitSealedTimesOut(t *testing.T) {
	m := NewMembership(InProcView(1), 0, NewSuspicionTable())
	mb, err := m.RequestJoin("late")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.WaitSealed(mb, 30*time.Millisecond); err == nil {
		t.Fatal("WaitSealed must time out when nothing seals")
	}
}

// TestDetectorKeyedByIncarnation is the regression test for the detector
// state leak: a conviction against (addr, inc) must insta-fail only that
// incarnation — the same address rejoining at inc+1 gets a full
// suspicion window and stays unconvicted while it heartbeats.
func TestDetectorKeyedByIncarnation(t *testing.T) {
	const suspicion = 200 * time.Millisecond
	tab := NewSuspicionTable()
	tab.Convict("addr-1", 1)

	// Old incarnation: insta-convicted at startup.
	{
		f := NewFabric(2)
		members := []Member{{Addr: "addr-0", Incarnation: 1}, {Addr: "addr-1", Incarnation: 1}}
		d := StartDetectorView(f.Comms()[0], 10*time.Millisecond, suspicion, members, tab)
		_, err := f.Comms()[0].RecvTimeout(1, 7, time.Second)
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 1 {
			t.Fatalf("convicted incarnation not insta-failed: %v", err)
		}
		d.Stop()
		f.Close()
	}

	// Fresh incarnation at the same address: must survive well past a
	// suspicion window as long as it heartbeats.
	{
		f := NewFabric(2)
		members := []Member{{Addr: "addr-0", Incarnation: 1}, {Addr: "addr-1", Incarnation: 2}}
		var wg sync.WaitGroup
		var failed error
		wg.Add(2)
		go func() {
			defer wg.Done()
			d := StartDetectorView(f.Comms()[0], 10*time.Millisecond, suspicion, members, tab)
			defer d.Stop()
			_, err := f.Comms()[0].RecvTimeout(1, 7, 3*suspicion)
			if err != ErrRecvTimeout {
				failed = err
			}
		}()
		go func() {
			defer wg.Done()
			d := StartDetectorView(f.Comms()[1], 10*time.Millisecond, suspicion, members, tab)
			defer d.Stop()
			time.Sleep(3 * suspicion)
		}()
		wg.Wait()
		f.Close()
		if failed != nil {
			t.Fatalf("fresh incarnation at a convicted address was failed: %v", failed)
		}
		if tab.Convicted("addr-1", 2) {
			t.Fatal("fresh incarnation must not be convicted while heartbeating")
		}
	}
}

// TestDetectorIgnoresStaleIncarnationBeats pins that a draining process
// from a previous view cannot keep its successor's liveness entry fresh:
// beats stamped with an older incarnation are discarded, so the peer is
// convicted by silence even while stale beats keep arriving.
func TestDetectorIgnoresStaleIncarnationBeats(t *testing.T) {
	const suspicion = 150 * time.Millisecond
	f := NewFabric(2)
	defer f.Close()
	members := []Member{{Addr: "addr-0", Incarnation: 1}, {Addr: "addr-1", Incarnation: 3}}
	tab := NewSuspicionTable()

	// Rank 1 runs no detector; it only floods rank 0 with beats stamped
	// incarnation 2 — a previous life at addr-1.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			KeepaliveView(f.Comms()[1], 10*time.Millisecond, 20*time.Millisecond, 2)
		}
	}()

	d := StartDetectorView(f.Comms()[0], 10*time.Millisecond, suspicion, members, tab)
	defer d.Stop()
	_, err := f.Comms()[0].RecvTimeout(1, 7, 3*suspicion)
	close(stop)
	wg.Wait()
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 {
		t.Fatalf("stale beats kept the peer alive: %v", err)
	}
	if !tab.Convicted("addr-1", 3) {
		t.Fatal("conviction must be recorded in the suspicion table")
	}
}

// TestDetectorAcceptsUnstampedBeats pins compatibility with an unkeyed
// peer detector: a beat with no incarnation payload counts as current.
func TestDetectorAcceptsUnstampedBeats(t *testing.T) {
	const suspicion = 150 * time.Millisecond
	f := NewFabric(2)
	defer f.Close()
	members := []Member{{Addr: "addr-0", Incarnation: 1}, {Addr: "addr-1", Incarnation: 3}}

	unkeyed := StartDetectorView(f.Comms()[1], 10*time.Millisecond, time.Minute, nil, nil)
	defer unkeyed.Stop()

	d := StartDetectorView(f.Comms()[0], 10*time.Millisecond, suspicion, members, NewSuspicionTable())
	defer d.Stop()
	_, err := f.Comms()[0].RecvTimeout(1, 7, 3*suspicion)
	if err != ErrRecvTimeout {
		t.Fatalf("unstamped beats must keep the peer alive, got %v", err)
	}
}

func TestJoinTCPHandshake(t *testing.T) {
	m := NewMembership(InProcView(2), 0, NewSuspicionTable())
	srv, err := ServeMembership("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The coordinator side: seal as soon as the request lands (standing
	// in for the cluster draining to the next iteration boundary).
	go func() {
		for !m.HasPending() {
			time.Sleep(5 * time.Millisecond)
		}
		m.Seal(m.Propose(), 12)
	}()

	view, rank, resume, err := RequestJoinTCP(srv.Addr(), "10.0.0.9:7000", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != 1 || rank != 2 || resume != 12 {
		t.Fatalf("joined (epoch %d, rank %d, resume %d), want (1, 2, 12)", view.Epoch, rank, resume)
	}
	if !view.Contains(Member{Addr: "10.0.0.9:7000", Incarnation: 1}) {
		t.Fatalf("sealed view %+v misses the joiner", view)
	}
}

// TestJoinTCPRetriesUntilCoordinatorUp pins the lost-request case: the
// joiner starts before the coordinator listens, and the retry loop must
// carry it through the dial failures to a successful admission.
func TestJoinTCPRetriesUntilCoordinatorUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; the server comes up on it later

	m := NewMembership(InProcView(2), 0, NewSuspicionTable())
	var srv *MembershipServer
	var srvErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(150 * time.Millisecond)
		srv, srvErr = ServeMembership(addr, m)
		if srvErr != nil {
			return
		}
		for !m.HasPending() {
			time.Sleep(5 * time.Millisecond)
		}
		m.Seal(m.Propose(), 4)
	}()

	view, _, resume, err := RequestJoinTCP(addr, "10.0.0.9:7000", 10*time.Second)
	<-done
	if srvErr != nil {
		t.Skipf("rebinding %s: %v", addr, srvErr)
	}
	defer srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != 1 || resume != 4 {
		t.Fatalf("joined (epoch %d, resume %d), want (1, 4)", view.Epoch, resume)
	}
}

// TestJoinTCPRetriesThroughAlreadyMember pins the rejoin race: a crashed
// rank redials while the old view still lists its address, gets the
// retryable ErrAlreadyMember rejection, and succeeds once the failure
// shrink has deposed its previous incarnation.
func TestJoinTCPRetriesThroughAlreadyMember(t *testing.T) {
	m := NewMembership(InProcView(3), 0, NewSuspicionTable())
	srv, err := ServeMembership("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	go func() {
		// Let at least one attempt hit the ErrAlreadyMember rejection,
		// then depose the old incarnation and admit the new one.
		time.Sleep(250 * time.Millisecond)
		m.Adopt(m.View().Shrink("inproc-2"))
		for !m.HasPending() {
			time.Sleep(5 * time.Millisecond)
		}
		m.Seal(m.Propose(), 8)
	}()

	view, rank, resume, err := RequestJoinTCP(srv.Addr(), "inproc-2", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resume != 8 || rank != 2 {
		t.Fatalf("rejoined (rank %d, resume %d), want (2, 8)", rank, resume)
	}
	if !view.Contains(Member{Addr: "inproc-2", Incarnation: 2}) {
		t.Fatalf("sealed view %+v must hold the fresh incarnation", view)
	}
}
