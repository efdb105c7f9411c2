package wire_test

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cosma/internal/machine"
	"cosma/internal/machine/conformance"
	"cosma/internal/machine/wire"
)

// TestConformanceLoopback runs the shared machine suite against a
// linked machine with all ranks hosted in one process: every peer at
// one address, so New builds the socket-free single-process transport
// a single-process wire engine runs on.
func TestConformanceLoopback(t *testing.T) {
	conformance.Run(t, func(t *testing.T, p int) *conformance.Cluster {
		peers := slices.Repeat([]string{wire.SocketAddrs(t.TempDir(), 1)[0]}, p)
		tr, err := wire.New(wire.Config{Rank: 0, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		return &conformance.Cluster{
			Machines: []*machine.Machine{machine.NewLinked(tr)},
			Cleanup:  func() { tr.Close() },
			Recover:  tr.Recover,
		}
	})
}

// TestConformanceUnixSockets runs the suite against a genuine socket
// mesh: p transports, one rank each, connected over Unix sockets —
// every byte of every message crosses a real connection.
func TestConformanceUnixSockets(t *testing.T) {
	conformance.Run(t, func(t *testing.T, p int) *conformance.Cluster {
		trs := bringUp(t, wire.SocketAddrs(t.TempDir(), p))
		machines := make([]*machine.Machine, p)
		for i, tr := range trs {
			machines[i] = machine.NewLinked(tr)
		}
		return &conformance.Cluster{
			Machines: machines,
			Cleanup:  func() { closeAll(trs) },
			Recover: func() error {
				// Heal every process concurrently: survivors of a lost
				// peer re-handshake with each other, so serial recovery
				// would deadlock on the dial/accept pairing.
				errs := make([]error, len(trs))
				var wg sync.WaitGroup
				for i, tr := range trs {
					wg.Add(1)
					go func(i int, tr *wire.Transport) {
						defer wg.Done()
						errs[i] = tr.Recover()
					}(i, tr)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						return err
					}
				}
				return nil
			},
		}
	})
}

// TestTCPRing exercises the TCP address scheme with a small ring
// exchange across three single-rank processes on localhost.
func TestTCPRing(t *testing.T) {
	const p = 3
	addrs := make([]string, p)
	for i, port := range freePorts(t, p) {
		addrs[i] = fmt.Sprintf("tcp://127.0.0.1:%d", port)
	}
	trs := bringUp(t, addrs)
	defer closeAll(trs)

	var wg sync.WaitGroup
	errs := make([]error, p)
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, m *machine.Machine) {
			defer wg.Done()
			errs[i] = m.Run(func(r *machine.Rank) error {
				dst, src := (r.ID()+1)%r.P(), (r.ID()+r.P()-1)%r.P()
				r.Send(dst, 1, []float64{float64(r.ID()), 3.5})
				got := r.Recv(src, 1)
				if len(got) != 2 || got[0] != float64(src) || got[1] != 3.5 {
					return fmt.Errorf("rank %d: got %v from %d", r.ID(), got, src)
				}
				return nil
			})
		}(i, machine.NewLinked(tr))
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
}

// TestLostPeerFailsRun kills one side of a two-process machine mid
// round and asserts the survivor's run fails promptly with the
// connection loss as root cause — and that the transport stays
// poisoned, so the next run fails fast instead of hanging.
func TestLostPeerFailsRun(t *testing.T) {
	trs := bringUp(t, wire.SocketAddrs(t.TempDir(), 2))
	defer closeAll(trs)
	m := machine.NewLinked(trs[0])
	m.SetRecvTimeout(10 * time.Second) // backstop only; the conn loss must fire first

	go func() {
		time.Sleep(50 * time.Millisecond)
		trs[1].Kill() // the peer process dies without a word
	}()
	start := time.Now()
	err := m.Run(func(r *machine.Rank) error {
		got := r.Recv(1, 99) // never satisfied
		return fmt.Errorf("receive from the dead peer returned %v", got)
	})
	if err == nil {
		t.Fatal("run survived a dead peer")
	}
	if !strings.Contains(err.Error(), "lost") {
		t.Fatalf("error does not name the connection loss: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failure took %v, the recv-timeout backstop instead of the conn-loss path", elapsed)
	}

	// Sticky poisoning: a later run on the broken transport fails fast.
	start = time.Now()
	err = m.Run(func(r *machine.Rank) error {
		r.Recv(1, 100)
		return nil
	})
	if err == nil {
		t.Fatal("run on a broken transport succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("poisoned run took %v, want fail-fast", elapsed)
	}
}

// TestCleanDepartureDoesNotAbort is the other half of the lost-peer
// contract: a peer that finished its run and Closed (goodbye frame,
// then EOF) must not abort a slower process still mid-run — and the
// frames it sent before departing must still be delivered.
func TestCleanDepartureDoesNotAbort(t *testing.T) {
	trs := bringUp(t, wire.SocketAddrs(t.TempDir(), 2))
	defer closeAll(trs)
	m := machine.NewLinked(trs[0])
	m.SetRecvTimeout(10 * time.Second)

	m1 := machine.NewLinked(trs[1])
	done := make(chan error, 1)
	go func() {
		err := m1.Run(func(r *machine.Rank) error {
			if r.ID() == 1 {
				r.Send(0, 7, []float64{42})
			}
			return nil
		})
		trs[1].Close() // fast process exits while the peer still works
		done <- err
	}()

	err := m.Run(func(r *machine.Rank) error {
		time.Sleep(300 * time.Millisecond) // outlive the peer's Close
		if got := r.Recv(1, 7); len(got) != 1 || got[0] != 42 {
			return fmt.Errorf("rank 0: got %v, want [42]", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("survivor's run failed after a clean departure: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("departing process's run failed: %v", err)
	}
}

// TestCleanDepartureWithFullQueue departs the way a process whose
// traffic is all outbound does — as far ahead of its peer as the
// outgoing queue lets it run. The survivor's dispatch is held so the
// departing writer wedges on a full socket; the departing rank sends
// 32 KiB messages until its queue stays full and Closes at once. The
// goodbye must wait for room behind the queued frames (the survivor
// resumes well inside Close's bound): dropped, it turns the departure
// into a lost connection that fails the survivor's run in flight and
// every later one. Every message must still arrive, in order.
func TestCleanDepartureWithFullQueue(t *testing.T) {
	trs := bringUp(t, wire.SocketAddrs(t.TempDir(), 2))
	defer closeAll(trs)
	m := machine.NewLinked(trs[0])
	m.SetRecvTimeout(10 * time.Second)

	m1 := machine.NewLinked(trs[1])
	held := make(chan struct{})
	sent := make(chan int, 1)
	done := make(chan error, 1)
	go func() {
		done <- m1.Run(func(r *machine.Rank) error {
			<-held
			payload := make([]float64, 4096)
			n := 0
			for full := 0; full < 3; {
				if trs[1].OutQueueLen(0) < wire.OutQueueFrames {
					payload[0], full = float64(n), 0
					r.Send(0, 7, payload)
					n++
					continue
				}
				full++ // full and staying full: the writer is wedged
				time.Sleep(10 * time.Millisecond)
			}
			sent <- n
			trs[1].Close()
			return nil
		})
	}()

	err := m.Run(func(r *machine.Rank) error {
		resume := trs[0].HoldDispatch()
		close(held)
		n := <-sent
		time.Sleep(50 * time.Millisecond) // the peer is inside Close by now
		resume()
		for i := 0; i < n; i++ {
			got := r.Recv(1, 7)
			if len(got) != 4096 || got[0] != float64(i) {
				return fmt.Errorf("rank 0: message %d of %d is %d words starting %v", i, n, len(got), got[0])
			}
			machine.Release(got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("survivor's run failed after a clean departure: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("departing process's run failed: %v", err)
	}
	// The peer's connection is closed now; once the EOF behind its last
	// frame has been read, it must not have been taken for a failure.
	time.Sleep(50 * time.Millisecond)
	if err := trs[0].Failure(); err != nil {
		t.Fatalf("survivor took the clean departure for a failure: %v", err)
	}
}

// TestRecvDeadlineWithSilentPeer covers the lost-peer case the conn
// layer cannot see: the peer process is alive (connection healthy) but
// never sends. The receive deadline must unpark the rank.
func TestRecvDeadlineWithSilentPeer(t *testing.T) {
	trs := bringUp(t, wire.SocketAddrs(t.TempDir(), 2))
	defer closeAll(trs)
	m := machine.NewLinked(trs[0])
	m.SetRecvTimeout(100 * time.Millisecond)
	err := m.Run(func(r *machine.Rank) error {
		r.Recv(1, 99)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("got %v, want a receive-deadline failure", err)
	}
}

// TestCounterMergeMissingPeerIsAnError holds the counter merge to its
// contract on a two-process machine: when both sides take part, the
// coordinator reads the remote rank's counters; when the peer skips the
// merge, the coordinator reports it — wrapped in ErrPeerFailure — rather
// than returning aggregates with that rank at zero.
func TestCounterMergeMissingPeerIsAnError(t *testing.T) {
	trs := bringUp(t, wire.SocketAddrs(t.TempDir(), 2))
	defer closeAll(trs)
	ms := []*machine.Machine{machine.NewLinked(trs[0]), machine.NewLinked(trs[1])}
	ms[0].SetRecvTimeout(200 * time.Millisecond) // bounds the coordinator's wait
	exchange := func(merge1 bool) error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, m := range ms {
			wg.Add(1)
			go func(i int, m *machine.Machine) {
				defer wg.Done()
				errs[i] = m.Run(func(r *machine.Rank) error {
					r.Send(1-r.ID(), 3, make([]float64, 5+r.ID()))
					machine.Release(r.Recv(1-r.ID(), 3))
					return nil
				})
				if errs[i] == nil && (i == 0 || merge1) {
					errs[i] = m.SyncCounters()
				}
			}(i, m)
		}
		wg.Wait()
		if errs[1] != nil {
			t.Fatalf("process 1: %v", errs[1])
		}
		return errs[0]
	}
	if err := exchange(true); err != nil {
		t.Fatalf("merge with every process taking part: %v", err)
	}
	if c := ms[0].Counters(1); c.SentWords != 6 || c.RecvWords != 5 || c.SentMsgs != 1 || c.RecvMsgs != 1 {
		t.Fatalf("coordinator's view of rank 1 after the merge: %+v", c)
	}
	err := exchange(false)
	if !errors.Is(err, wire.ErrPeerFailure) {
		t.Fatalf("merge with a silent peer returned %v, want an error wrapping ErrPeerFailure", err)
	}
}

// TestNewAbsentPeerTimesOut holds bring-up to DialTimeout on the accept
// side: process 0 of a two-process mesh only accepts, and a peer that
// never starts must fail New once the timeout passes, not hang it.
func TestNewAbsentPeerTimesOut(t *testing.T) {
	peers := wire.SocketAddrs(t.TempDir(), 2)
	done := make(chan error, 1)
	go func() {
		tr, err := wire.New(wire.Config{Rank: 0, Peers: peers, DialTimeout: 200 * time.Millisecond})
		if err == nil {
			tr.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("New brought up a mesh whose peer never started")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("New still blocked 2s after a 200ms DialTimeout")
	}
}

// bringUp connects one single-rank transport per address concurrently
// (processes of a real launch start in arbitrary order) and fails the
// test if any cannot join.
func bringUp(t *testing.T, addrs []string) []*wire.Transport {
	t.Helper()
	trs := make([]*wire.Transport, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i := range addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs[i], errs[i] = wire.New(wire.Config{Rank: i, Peers: addrs, DialTimeout: 10 * time.Second})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("bring-up of process %d: %v", i, err)
		}
	}
	return trs
}

func closeAll(trs []*wire.Transport) {
	for _, tr := range trs {
		if tr != nil {
			tr.Close()
		}
	}
}

// freePorts reserves n distinct localhost TCP ports by binding and
// releasing them; the tiny reuse race is acceptable in tests.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().(*net.TCPAddr).Port
		ln.Close()
	}
	return ports
}
