package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cosma/internal/machine"
)

// Config places one process inside a wire machine. Peers holds the
// address of every rank, index = rank id; ranks that share an address
// string are hosted by the same OS process (all in Peers[Rank]'s
// process for this one). Addresses are "unix:///path/rank.sock",
// "tcp://host:port", or a bare "host:port" (TCP).
type Config struct {
	// Rank is any rank hosted by this process; it selects which
	// address in Peers is ours.
	Rank int
	// Peers is the address of every rank of the machine.
	Peers []string
	// DialTimeout bounds mesh bring-up — dialing lower-indexed peers
	// (with retry, since processes start in any order) and the
	// handshake read on accepted connections. Zero means 10s.
	DialTimeout time.Duration
	// RecvTimeout is the initial receive deadline (see
	// Transport.SetRecvTimeout). Zero disables the bound.
	RecvTimeout time.Duration
	// Respawn, when set, lets Recover re-exec a dead worker process:
	// it is called with the process index and address of each dead
	// peer before the lost connections are rebuilt. Only the launcher
	// process needs it — peers with a nil Respawn simply reconnect to
	// whatever comes back up at the dead peer's address.
	Respawn func(proc int, addr string) error
}

// Transport is the out-of-process machine.Transport: every rank's
// sends become length-prefixed frames over a per-process-pair
// connection, demultiplexed at the far end into the same
// (src, tag)-keyed mailbox discipline the in-process backends use, so
// rank programs (and the tree collectives built on them) run unchanged
// and produce bitwise-identical results. It additionally implements
// the machine's MultiProcess, failer, aborter and counterSyncer
// extension interfaces.
type Transport struct {
	p       int
	rank    int      // bootstrap rank identifying this process
	procs   []string // unique peer addresses, in first-rank order
	self    int      // our index in procs
	procOf  []int    // rank → process index
	local   []int    // ranks hosted by this process
	isLocal []bool

	office []*machine.Mailbox // per-rank; nil for remote ranks
	count  []machine.Counters

	recvTimeout time.Duration
	dialT       time.Duration
	respawn     func(proc int, addr string) error

	ln net.Listener
	// peers holds one connection per peer process (nil at self and for
	// lost peers); slots are atomic so Recover can swap a rebuilt
	// connection in while reader goroutines of other peers still route
	// frames.
	peers []atomic.Pointer[peer]

	dead      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// fmu guards the failure record and the abort callback.
	fmu      sync.Mutex
	failed   error  // sticky: a connection died; poisons later runs
	deadProc []bool // per process: its connection is gone (crash or clean exit)
	abortErr error  // per-run: a peer aborted; cleared by Reset
	onAbort  func()

	// bmu guards all barrier/abort/ctrl bookkeeping; bcond wakes
	// coordinator and peers parked in waitBarrier or SyncCounters.
	bmu     sync.Mutex
	bcond   *sync.Cond
	aborted bool
	epoch   int64 // run number; advanced by Reset, aligned across processes
	round   int64 // barrier round within the run
	// pendingAbort is the epoch of an ABORT frame that arrived from a
	// process already ahead of us; it is applied when Reset advances us
	// to that run.
	pendingAbort int64
	// early buffers data frames from a peer already in a later run
	// than us; Reset delivers them once we catch up.
	early    []frame
	entered  map[int64]int         // coordinator: ENTER count per epoch<<32|round
	released map[int64]bool        // peers: RELEASE received per key
	ctrl     map[int64][][]float64 // coordinator: counter payloads per epoch
}

type peer struct {
	proc int
	addr string
	conn net.Conn
	out  chan frame
	// superseded marks a connection Recover has replaced: its loops
	// must not record failures against the fresh connection's process.
	superseded atomic.Bool
}

// New connects this process into the wire machine described by cfg:
// it listens on its own address, dials every lower-indexed process
// (retrying until DialTimeout, since peers start in any order),
// accepts every higher-indexed one, and exchanges a HELLO handshake
// on each dialed connection. It returns once the full mesh is up.
func New(cfg Config) (*Transport, error) {
	t, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if len(t.procs) == 1 {
		return t, nil // single process: pure loopback, no sockets
	}
	if err := t.connect(cfg.dialTimeout()); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// NewLoopback returns a wire transport hosting all p ranks in this
// process, with no sockets — frames short-circuit through the local
// mailboxes. It exists so the wire delivery semantics can be exercised
// (and conformance-tested) without a cluster.
func NewLoopback(p int) *Transport {
	peers := make([]string, p)
	for i := range peers {
		peers[i] = "loopback"
	}
	t, err := build(Config{Rank: 0, Peers: peers})
	if err != nil {
		panic(err) // unreachable: the loopback config is well-formed
	}
	return t
}

func build(cfg Config) (*Transport, error) {
	p := len(cfg.Peers)
	if p < 1 {
		return nil, errors.New("wire: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= p {
		return nil, fmt.Errorf("wire: rank %d outside [0, %d)", cfg.Rank, p)
	}
	t := &Transport{
		p:           p,
		rank:        cfg.Rank,
		procOf:      make([]int, p),
		isLocal:     make([]bool, p),
		office:      make([]*machine.Mailbox, p),
		count:       make([]machine.Counters, p),
		recvTimeout: cfg.RecvTimeout,
		dialT:       cfg.dialTimeout(),
		respawn:     cfg.Respawn,
		dead:        make(chan struct{}),
		entered:     make(map[int64]int),
		released:    make(map[int64]bool),
		ctrl:        make(map[int64][][]float64),
	}
	t.bcond = sync.NewCond(&t.bmu)
	index := make(map[string]int)
	for rank, addr := range cfg.Peers {
		if addr == "" {
			return nil, fmt.Errorf("wire: rank %d has an empty address", rank)
		}
		pi, ok := index[addr]
		if !ok {
			pi = len(t.procs)
			index[addr] = pi
			t.procs = append(t.procs, addr)
		}
		t.procOf[rank] = pi
	}
	t.self = t.procOf[cfg.Rank]
	for rank, pi := range t.procOf {
		if pi == t.self {
			t.local = append(t.local, rank)
			t.isLocal[rank] = true
			t.office[rank] = machine.NewMailbox()
			t.office[rank].SetTimeout(cfg.RecvTimeout)
		}
	}
	t.peers = make([]atomic.Pointer[peer], len(t.procs))
	t.deadProc = make([]bool, len(t.procs))
	return t, nil
}

func (cfg Config) dialTimeout() time.Duration {
	if cfg.DialTimeout > 0 {
		return cfg.DialTimeout
	}
	return 10 * time.Second
}

// connect brings up the one-connection-per-process-pair mesh: dial
// processes below us, accept processes above us. Each connection opens
// with a two-way HELLO exchange (dialer's hello, acceptor's ack) that
// carries both sides' run epochs, so a process joining an established
// mesh — a worker Recover re-execed — fast-forwards to the survivors'
// epoch before its first Reset.
func (t *Transport) connect(timeout time.Duration) error {
	network, target := splitAddr(t.procs[t.self])
	ln, err := listen(network, target)
	if err != nil {
		return fmt.Errorf("wire: process %d listening on %s: %w", t.self, t.procs[t.self], err)
	}
	t.ln = ln

	conns := make([]net.Conn, len(t.procs))
	acceptErr := make(chan error, 1)
	go func() {
		var scratch []byte
		for n := len(t.procs) - 1 - t.self; n > 0; n-- {
			var src int
			var err error
			src, scratch, err = t.acceptPeer(conns, scratch, timeout, nil)
			if err != nil {
				acceptErr <- err
				return
			}
			_ = src
		}
		acceptErr <- nil
	}()

	var dialErr error
	for j := 0; j < t.self && dialErr == nil; j++ {
		conn, err := t.dialPeer(j, timeout)
		if err != nil {
			dialErr = err
			break
		}
		conns[j] = conn
	}
	if err := <-acceptErr; dialErr == nil {
		dialErr = err
	}
	if dialErr != nil {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return dialErr
	}
	for j, conn := range conns {
		if conn != nil {
			t.startPeer(j, conn)
		}
	}
	return nil
}

// dialPeer dials process j, sends our hello and waits for the
// acceptor's ack, adopting its epoch.
func (t *Transport) dialPeer(j int, timeout time.Duration) (net.Conn, error) {
	conn, err := dialRetry(t.procs[j], timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: process %d dialing process %d (%s): %w", t.self, j, t.procs[j], err)
	}
	hello := appendFrame(nil, frame{kind: kindHello, src: t.self, dst: j, tag: int64(t.p), epoch: t.curEpoch()})
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: process %d handshake with process %d: %w", t.self, j, err)
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	ack, _, err := readFrame(conn, nil)
	if err != nil || ack.kind != kindHello || ack.tag != int64(t.p) || ack.src != j {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("bad hello ack from process %d", ack.src)
		}
		return nil, fmt.Errorf("wire: process %d handshake with process %d: %w", t.self, j, err)
	}
	conn.SetReadDeadline(time.Time{})
	t.adoptEpoch(ack.epoch)
	return conn, nil
}

// acceptPeer accepts one handshake from a higher-indexed process,
// recording the connection in conns[src]. accept (nil = any new
// higher-indexed process) further restricts which processes are
// expected — Recover passes the set of dead ones.
func (t *Transport) acceptPeer(conns []net.Conn, scratch []byte, timeout time.Duration, accept func(src int) bool) (int, []byte, error) {
	conn, err := t.ln.Accept()
	if err != nil {
		return 0, scratch, fmt.Errorf("wire: process %d accepting peer: %w", t.self, err)
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	var hello frame
	hello, scratch, err = readFrame(conn, scratch)
	if err != nil || hello.kind != kindHello || hello.tag != int64(t.p) ||
		hello.src <= t.self || hello.src >= len(t.procs) || conns[hello.src] != nil ||
		(accept != nil && !accept(hello.src)) {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("handshake from process %d rejected", hello.src)
		}
		return 0, scratch, fmt.Errorf("wire: process %d handshake: %w", t.self, err)
	}
	ack := appendFrame(nil, frame{kind: kindHello, src: t.self, dst: hello.src, tag: int64(t.p), epoch: t.curEpoch()})
	if _, err := conn.Write(ack); err != nil {
		conn.Close()
		return 0, scratch, fmt.Errorf("wire: process %d handshake ack to process %d: %w", t.self, hello.src, err)
	}
	conn.SetReadDeadline(time.Time{})
	t.adoptEpoch(hello.epoch)
	conns[hello.src] = conn
	return hello.src, scratch, nil
}

// outQueueFrames is the capacity of a peer's outgoing frame queue; a
// sender further ahead of the writer than this blocks in enqueue.
const outQueueFrames = 256

// startPeer installs a fresh connection to process j and starts its
// reader and writer goroutines.
func (t *Transport) startPeer(j int, conn net.Conn) {
	pr := &peer{proc: j, addr: t.procs[j], conn: conn, out: make(chan frame, outQueueFrames)}
	t.peers[j].Store(pr)
	t.wg.Add(2)
	go t.writeLoop(pr)
	go t.readLoop(pr)
}

func (t *Transport) curEpoch() int64 {
	t.bmu.Lock()
	defer t.bmu.Unlock()
	return t.epoch
}

// adoptEpoch fast-forwards the run epoch to a peer's: a process that
// joined (or rejoined) an established mesh must count runs from where
// the survivors are, so its next Reset lands on the same epoch as
// theirs.
func (t *Transport) adoptEpoch(e int64) {
	t.bmu.Lock()
	if e > t.epoch {
		t.epoch = e
	}
	t.bmu.Unlock()
}

// Close tears the transport down: queued frames are flushed behind a
// goodbye frame, every connection is closed, and the background
// goroutines exit. Call it only after this process's runs have
// completed — peers still running are fine: the goodbye tells them the
// ensuing EOF is a clean departure, not a failure, and everything this
// process ever sent is flushed ahead of it.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		// Bound the final flush so a wedged peer cannot hang teardown,
		// and say goodbye as the last frame on each connection. A full
		// queue is waited for under the same bound — the writer is
		// draining it — since a dropped goodbye turns a clean departure
		// into a peer failure at the survivor.
		deadline := time.Now().Add(2 * time.Second)
		for i := range t.peers {
			pr := t.peers[i].Load()
			if pr == nil {
				continue
			}
			pr.conn.SetWriteDeadline(deadline)
			select {
			case pr.out <- frame{kind: kindBye, src: t.rank}:
			case <-time.After(time.Until(deadline)): // wedged: the peer sees a raw EOF
			}
		}
		close(t.dead)
		if t.ln != nil {
			t.ln.Close()
		}
		for _, id := range t.local {
			t.office[id].Interrupt()
		}
		t.wg.Wait()
		t.bmu.Lock()
		for i, f := range t.early {
			if f.payload != nil {
				machine.Release(f.payload)
			}
			t.early[i] = frame{}
		}
		t.early = nil
		t.bmu.Unlock()
	})
	return nil
}

// writeLoop drains one peer's outgoing frame queue onto its
// connection, flushing whenever the queue goes momentarily idle so
// consecutive frames batch into one syscall.
func (t *Transport) writeLoop(pr *peer) {
	defer t.wg.Done()
	bw := bufio.NewWriterSize(pr.conn, 64<<10)
	var buf []byte
	write := func(f frame) bool {
		buf = appendFrame(buf, f)
		_, err := bw.Write(buf)
		if f.release {
			machine.Release(f.payload)
		}
		if err == nil && len(pr.out) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			t.failPeer(pr, fmt.Errorf("wire: writing to %s: %v (%w)", pr.addr, err, ErrPeerFailure))
			return false
		}
		return true
	}
	for {
		select {
		case f := <-pr.out:
			if !write(f) {
				t.discard(pr)
				return
			}
		case <-t.dead:
			for {
				select {
				case f := <-pr.out:
					if !write(f) {
						t.discard(pr)
						return
					}
				default:
					bw.Flush()
					pr.conn.Close()
					return
				}
			}
		}
	}
}

// discard consumes a dead peer's queue (releasing owned payloads) so
// senders never block on it, until teardown.
func (t *Transport) discard(pr *peer) {
	pr.conn.Close()
	for {
		select {
		case f := <-pr.out:
			if f.release {
				machine.Release(f.payload)
			}
		case <-t.dead:
			for {
				select {
				case f := <-pr.out:
					if f.release {
						machine.Release(f.payload)
					}
				default:
					return
				}
			}
		}
	}
}

// readLoop demultiplexes one connection's incoming frames. A peer that
// sent kindBye is done for good: the EOF that follows is its Close
// finishing, not a lost connection, so it must not abort a run still
// in progress here.
func (t *Transport) readLoop(pr *peer) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(pr.conn, 64<<10)
	var scratch []byte
	departed := false
	for {
		var f frame
		var err error
		f, scratch, err = readFrame(br, scratch)
		if err != nil {
			select {
			case <-t.dead: // orderly teardown, not a failure
			default:
				if pr.superseded.Load() {
					return
				}
				t.markDead(pr.proc)
				if !departed {
					t.fail(fmt.Errorf("wire: connection to %s lost: %v (%w)", pr.addr, err, ErrPeerFailure))
				}
			}
			return
		}
		if f.kind == kindBye {
			departed = true
			continue
		}
		t.dispatch(f)
	}
}

func (t *Transport) dispatch(f frame) {
	switch f.kind {
	case kindData:
		if f.dst < 0 || f.dst >= t.p || !t.isLocal[f.dst] {
			if f.payload != nil {
				machine.Release(f.payload)
			}
			return
		}
		// Deliver under bmu so the epoch check and the mailbox post are
		// atomic with respect to Reset advancing the run.
		t.bmu.Lock()
		switch {
		case f.epoch == t.epoch:
			t.office[f.dst].Post(f.src, int(f.tag), f.payload)
			t.bmu.Unlock()
		case f.epoch > t.epoch:
			t.early = append(t.early, f)
			t.bmu.Unlock()
		default:
			t.bmu.Unlock()
			if f.payload != nil {
				machine.Release(f.payload)
			}
		}
	case kindBarrier:
		t.bmu.Lock()
		t.entered[f.tag]++
		t.bcond.Broadcast()
		t.bmu.Unlock()
	case kindRelease:
		t.bmu.Lock()
		t.released[f.tag] = true
		t.bcond.Broadcast()
		t.bmu.Unlock()
	case kindAbort:
		t.remoteAbort(f.epoch)
	case kindCtrl:
		t.bmu.Lock()
		t.ctrl[f.tag] = append(t.ctrl[f.tag], f.payload)
		t.bcond.Broadcast()
		t.bmu.Unlock()
	default:
		if f.payload != nil {
			machine.Release(f.payload)
		}
	}
}

// enqueue hands a frame to proc's writer; after teardown begins the
// frame is dropped (and its owned payload released) instead of
// blocking forever.
func (t *Transport) enqueue(proc int, f frame) {
	pr := t.peers[proc].Load()
	if pr == nil {
		if f.release {
			machine.Release(f.payload)
		}
		return
	}
	// Check dead first: a two-way select picks ready cases at random,
	// and a frame enqueued after teardown began (an abort racing Close,
	// say) would be flushed onto the wire mid-drain.
	select {
	case <-t.dead:
	default:
		select {
		case pr.out <- f:
			return
		case <-t.dead:
		}
	}
	if f.release {
		machine.Release(f.payload)
	}
}

// failPeer records a connection loss against its peer process (so
// Recover knows what to rebuild) and raises the transport failure —
// unless the connection was already superseded by Recover, in which
// case the stale loop's error is noise.
func (t *Transport) failPeer(pr *peer, err error) {
	if pr.superseded.Load() {
		return
	}
	t.markDead(pr.proc)
	t.fail(err)
}

// markDead records that a peer process's connection is gone; Recover
// uses the record to rebuild only what was lost.
func (t *Transport) markDead(proc int) {
	t.fmu.Lock()
	t.deadProc[proc] = true
	t.fmu.Unlock()
}

// fail records the first asynchronous transport failure (sticky until
// the process is torn down or Recover clears it) and aborts the run in
// flight. Once Close has begun it does nothing: peers may legitimately
// be gone already, and a teardown hiccup must not abort runs still in
// progress there.
func (t *Transport) fail(err error) {
	select {
	case <-t.dead:
		return
	default:
	}
	t.fmu.Lock()
	first := t.failed == nil
	if first {
		t.failed = err
	}
	cb := t.onAbort
	t.fmu.Unlock()
	if !first {
		return
	}
	if cb != nil {
		cb() // machine.interrupt: poisons the barrier, then calls Interrupt
	} else {
		t.Interrupt()
	}
}

// remoteAbort handles a peer's ABORT frame for the given run epoch:
// the matching run is interrupted (once) and the reason recorded for
// Failure, but the condition is per-run — the peer is alive and will
// Reset with us. A stale epoch (that run already ended here) is
// dropped; a future one is remembered and applied when Reset advances
// us to it, so an abort can never poison the wrong run.
func (t *Transport) remoteAbort(epoch int64) {
	t.bmu.Lock()
	if epoch < t.epoch || (epoch == t.epoch && t.aborted) {
		t.bmu.Unlock()
		return
	}
	if epoch > t.epoch {
		if epoch > t.pendingAbort {
			t.pendingAbort = epoch
		}
		t.bmu.Unlock()
		return
	}
	t.bmu.Unlock()
	t.fmu.Lock()
	if t.abortErr == nil {
		t.abortErr = errAbortedByPeer
	}
	cb := t.onAbort
	t.fmu.Unlock()
	if cb != nil {
		cb()
	} else {
		t.Interrupt()
	}
}

// ErrPeerFailure marks every failure caused by a peer process rather
// than by this one — a lost connection, a peer's abort broadcast, a
// barrier starved of a dead peer. Match it with errors.Is on the error
// Run returns; it is the wire-level signal a retry layer treats as
// transient (call Recover, then run again).
var ErrPeerFailure = errors.New("peer process failure")

var errAbortedByPeer = fmt.Errorf("wire: run aborted by a peer process (%w)", ErrPeerFailure)

// Failure implements the machine's failer extension: the sticky
// connection failure if any, else the per-run peer abort.
func (t *Transport) Failure() error {
	t.fmu.Lock()
	defer t.fmu.Unlock()
	if t.failed != nil {
		return t.failed
	}
	return t.abortErr
}

// OnAbort implements the machine's aborter extension.
func (t *Transport) OnAbort(fn func()) {
	t.fmu.Lock()
	t.onAbort = fn
	t.fmu.Unlock()
}

// LocalRanks implements machine.MultiProcess.
func (t *Transport) LocalRanks() []int { return t.local }

// P implements machine.Transport.
func (t *Transport) P() int { return t.p }

// post is the shared send path: local destinations short-circuit into
// their mailbox, remote ones become data frames on the destination
// process's connection. Counting matches the in-process transports:
// src accounts at send, dst at take, self-sends are free.
func (t *Transport) post(src, dst, tag int, data []float64, owned bool) {
	if !owned {
		cp := machine.Loan(len(data))
		copy(cp, data)
		data = cp
	}
	if src != dst {
		t.count[src].SentWords += int64(len(data))
		t.count[src].SentMsgs++
	}
	if t.isLocal[dst] {
		t.office[dst].Post(src, tag, data)
		return
	}
	// Reading epoch without bmu is safe on this path: only Reset writes
	// it, and Reset is sequenced before (and after) the rank goroutines
	// that send.
	t.enqueue(t.procOf[dst], frame{kind: kindData, src: src, dst: dst, tag: int64(tag), epoch: t.epoch, payload: data, release: true})
}

func (t *Transport) take(dst, src, tag int) []float64 {
	data := t.office[dst].Take(src, tag)
	if src != dst {
		t.count[dst].RecvWords += int64(len(data))
		t.count[dst].RecvMsgs++
	}
	return data
}

func (t *Transport) tryTake(dst, src, tag int) ([]float64, bool) {
	data, ok := t.office[dst].TryTake(src, tag)
	if !ok {
		return nil, false
	}
	if src != dst {
		t.count[dst].RecvWords += int64(len(data))
		t.count[dst].RecvMsgs++
	}
	return data, true
}

// Send implements machine.Transport.
func (t *Transport) Send(src, dst, tag int, data []float64, owned bool) {
	t.post(src, dst, tag, data, owned)
}

// SendAt implements machine.Transport: the wire transport is untimed,
// so a relayed send is an ordinary send (the stamp still travels in
// the frame header for protocol completeness).
func (t *Transport) SendAt(src, dst, tag int, data []float64, owned bool, at float64) {
	t.post(src, dst, tag, data, owned)
}

// Recv implements machine.Transport.
func (t *Transport) Recv(dst, src, tag int) []float64 {
	return t.take(dst, src, tag)
}

// ISend implements machine.Transport: frames are queued eagerly, so
// the request completes at post time.
func (t *Transport) ISend(src, dst, tag int, data []float64, owned bool) machine.Request {
	t.post(src, dst, tag, data, owned)
	return sentRequest{}
}

// IRecv implements machine.Transport.
func (t *Transport) IRecv(dst, src, tag int) machine.Request {
	return &wireRecv{t: t, dst: dst, src: src, tag: tag}
}

// Compute implements machine.Transport.
func (t *Transport) Compute(rank int, flops int64) {
	t.count[rank].Flops += flops
}

// SetRecvTimeout implements machine.Transport; the deadline also
// bounds barrier waits, the other place a lost peer could park us.
func (t *Transport) SetRecvTimeout(d time.Duration) {
	t.recvTimeout = d
	for _, id := range t.local {
		t.office[id].SetTimeout(d)
	}
}

// sentRequest is an eagerly-completed wire send.
type sentRequest struct{}

func (sentRequest) Wait() []float64         { return nil }
func (sentRequest) Test() ([]float64, bool) { return nil, true }
func (sentRequest) At() float64             { return 0 }

// wireRecv is a pending receive: posting records the match key, the
// mailbox take happens at Wait/Test.
type wireRecv struct {
	t             *Transport
	dst, src, tag int
	done          bool
	data          []float64
}

func (r *wireRecv) Wait() []float64 {
	if !r.done {
		r.data = r.t.take(r.dst, r.src, r.tag)
		r.done = true
	}
	return r.data
}

func (r *wireRecv) Test() ([]float64, bool) {
	if r.done {
		return r.data, true
	}
	data, ok := r.t.tryTake(r.dst, r.src, r.tag)
	if !ok {
		return nil, false
	}
	r.data = data
	r.done = true
	return r.data, true
}

func (r *wireRecv) At() float64 { return 0 }

// BarrierSync implements machine.Transport. It runs once per completed
// local barrier, with every local rank parked, and performs the
// inter-process half: processes send ENTER to the coordinator (the
// process hosting rank 0), which releases them once all have arrived.
// Keys carry the run epoch and round, so a stale ENTER from an aborted
// run can never satisfy a later barrier.
func (t *Transport) BarrierSync() {
	if len(t.procs) == 1 {
		return
	}
	t.bmu.Lock()
	key := t.epoch<<32 | t.round
	t.round++
	t.bmu.Unlock()
	if t.self == 0 {
		need := len(t.procs) - 1
		t.waitBarrier(key, func() bool { return t.entered[key] >= need })
		t.bmu.Lock()
		delete(t.entered, key)
		t.bmu.Unlock()
		for pi := range t.peers {
			if t.peers[pi].Load() != nil {
				t.enqueue(pi, frame{kind: kindRelease, src: t.rank, tag: key})
			}
		}
	} else {
		t.enqueue(0, frame{kind: kindBarrier, src: t.rank, tag: key})
		t.waitBarrier(key, func() bool { return t.released[key] })
		t.bmu.Lock()
		delete(t.released, key)
		t.bmu.Unlock()
	}
}

// waitBarrier parks until ready (under bmu), the run aborts, or the
// recv deadline expires. Abort unwinds with the machine's cancellation
// panic (the caller rank is collateral); a deadline is a lost peer and
// becomes the sticky transport failure.
func (t *Transport) waitBarrier(key int64, ready func() bool) {
	t.bmu.Lock()
	expired := false
	if t.recvTimeout > 0 {
		deadline := time.Now().Add(t.recvTimeout)
		timer := time.AfterFunc(t.recvTimeout, func() {
			t.bmu.Lock()
			t.bcond.Broadcast()
			t.bmu.Unlock()
		})
		for !ready() && !t.aborted && !expired {
			t.bcond.Wait()
			expired = !ready() && !t.aborted && !time.Now().Before(deadline)
		}
		timer.Stop()
	} else {
		for !ready() && !t.aborted {
			t.bcond.Wait()
		}
	}
	aborted := t.aborted
	t.bmu.Unlock()
	if aborted {
		panic(machine.InterruptPanic())
	}
	if expired {
		t.fail(fmt.Errorf("wire: barrier %#x timed out after %v waiting for peers (%w)", key, t.recvTimeout, ErrPeerFailure))
		panic(machine.InterruptPanic())
	}
}

// Interrupt implements machine.Transport: local receivers wake with
// the cancellation panic, barrier waiters unwind, and (once per run)
// every peer process is told to abort too.
func (t *Transport) Interrupt() {
	t.bmu.Lock()
	already := t.aborted
	t.aborted = true
	epoch := t.epoch
	t.bcond.Broadcast()
	t.bmu.Unlock()
	for _, id := range t.local {
		t.office[id].Interrupt()
	}
	if !already {
		for pi := range t.peers {
			if t.peers[pi].Load() != nil {
				t.enqueue(pi, frame{kind: kindAbort, src: t.rank, epoch: epoch})
			}
		}
	}
}

// Reset implements machine.Transport: counters clear, the run epoch
// advances (in lockstep on every process, since runs are collective),
// and barrier bookkeeping left over from an aborted run is dropped. A
// transport whose connection has died stays poisoned — the next run
// fails fast with the recorded failure instead of hanging.
func (t *Transport) Reset() {
	for i := range t.count {
		t.count[i] = machine.Counters{}
	}
	t.fmu.Lock()
	t.abortErr = nil
	failed := t.failed
	t.fmu.Unlock()
	t.bmu.Lock()
	t.epoch++
	t.round = 0
	pendingHit := t.pendingAbort == t.epoch
	t.aborted = failed != nil || pendingHit
	for key := range t.entered {
		if key>>32 < t.epoch {
			delete(t.entered, key)
		}
	}
	for key := range t.released {
		if key>>32 < t.epoch {
			delete(t.released, key)
		}
	}
	for epoch, payloads := range t.ctrl {
		if epoch < t.epoch {
			for _, pl := range payloads {
				machine.Release(pl)
			}
			delete(t.ctrl, epoch)
		}
	}
	// Mailboxes clear and early frames replay inside the same critical
	// section as the epoch advance, so the reader goroutines' delivery
	// decisions can never interleave with a half-done Reset.
	for _, id := range t.local {
		if failed != nil || pendingHit {
			t.office[id].Interrupt()
		} else {
			t.office[id].Reset()
		}
	}
	keep := t.early[:0]
	for _, f := range t.early {
		switch {
		case f.epoch == t.epoch:
			t.office[f.dst].Post(f.src, int(f.tag), f.payload)
		case f.epoch > t.epoch:
			keep = append(keep, f)
		default:
			if f.payload != nil {
				machine.Release(f.payload)
			}
		}
	}
	for i := len(keep); i < len(t.early); i++ {
		t.early[i] = frame{}
	}
	t.early = keep
	t.bmu.Unlock()
	if pendingHit {
		t.fmu.Lock()
		t.abortErr = errAbortedByPeer
		t.fmu.Unlock()
	}
}

// Recover heals the mesh after peer-process loss: dead workers are
// re-execed (when Config.Respawn is set), only the lost connections
// are rebuilt — survivors keep theirs — and the sticky transport
// failure is cleared so the next Reset starts a clean run. It is a
// collective: every surviving process must call it between runs (the
// engine's retry layer does), each rebuilding its own lost
// connections, while the rejoining process simply runs New — that
// dials and accepts exactly the connections the survivors are
// rebuilding, and adopts their run epoch through the handshake, so its
// first Reset lands on the same run as their retry. With nothing lost,
// Recover only clears any recorded failure, so it is always safe to
// call before a retry.
func (t *Transport) Recover() error {
	if len(t.procs) == 1 {
		t.clearFailure()
		return nil
	}
	t.fmu.Lock()
	var lost []int
	for pi, dead := range t.deadProc {
		if dead {
			lost = append(lost, pi)
		}
	}
	t.fmu.Unlock()
	if len(lost) == 0 {
		t.clearFailure()
		return nil
	}
	if t.respawn != nil {
		for _, pi := range lost {
			if err := t.respawn(pi, t.procs[pi]); err != nil {
				return fmt.Errorf("wire: respawning process %d: %w", pi, err)
			}
		}
	}
	// Retire the dead connections before rebuilding, so a stale loop
	// still parked on one can never record a failure against the fresh
	// mesh.
	deadSet := make(map[int]bool, len(lost))
	acceptN := 0
	for _, pi := range lost {
		deadSet[pi] = true
		if pi > t.self {
			acceptN++
		}
		if old := t.peers[pi].Load(); old != nil {
			old.superseded.Store(true)
			old.conn.Close()
			t.peers[pi].Store(nil)
		}
	}
	// Rebuild with the same roles as connect: dial the dead below us,
	// accept the dead above us (they dial everyone below themselves as
	// part of their fresh New).
	conns := make([]net.Conn, len(t.procs))
	acceptErr := make(chan error, 1)
	go func() {
		if d, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Now().Add(t.dialT))
			defer d.SetDeadline(time.Time{})
		}
		var scratch []byte
		var err error
		for n := acceptN; n > 0; n-- {
			_, scratch, err = t.acceptPeer(conns, scratch, t.dialT, func(src int) bool { return deadSet[src] })
			if err != nil {
				acceptErr <- err
				return
			}
		}
		acceptErr <- nil
	}()
	var dialErr error
	for _, pi := range lost {
		if pi >= t.self || dialErr != nil {
			continue
		}
		conns[pi], dialErr = t.dialPeer(pi, t.dialT)
	}
	if err := <-acceptErr; dialErr == nil {
		dialErr = err
	}
	if dialErr != nil {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return dialErr
	}
	t.fmu.Lock()
	for _, pi := range lost {
		t.deadProc[pi] = false
	}
	t.fmu.Unlock()
	for pi, conn := range conns {
		if conn != nil {
			t.startPeer(pi, conn)
		}
	}
	t.clearFailure()
	return nil
}

// clearFailure forgets a recorded transport failure once the condition
// behind it has been repaired. Aborts recorded for future runs
// (pendingAbort beyond the current epoch) are genuine signals for the
// run they name and are kept.
func (t *Transport) clearFailure() {
	t.fmu.Lock()
	t.failed = nil
	t.abortErr = nil
	t.fmu.Unlock()
	t.bmu.Lock()
	if t.pendingAbort <= t.epoch {
		t.pendingAbort = 0
	}
	t.bmu.Unlock()
}

// ctrlWords is the per-rank counter record in a kindCtrl payload:
// rank, sent words, recv words, sent msgs, recv msgs, flops. All
// counts are < 2^53, so the float64 round-trip is exact.
const ctrlWords = 6

// SyncCounters implements the machine's counterSyncer extension: a
// collective that merges every process's per-rank traffic counters
// into the coordinator, so rank 0's process reports machine-wide
// volumes. Every process must call it after the same (successful) run.
func (t *Transport) SyncCounters() {
	if len(t.procs) == 1 {
		return
	}
	t.bmu.Lock()
	epoch := t.epoch
	t.bmu.Unlock()
	if t.self != 0 {
		payload := machine.Loan(ctrlWords * len(t.local))
		for i, id := range t.local {
			c := t.count[id]
			w := payload[ctrlWords*i:]
			w[0] = float64(id)
			w[1] = float64(c.SentWords)
			w[2] = float64(c.RecvWords)
			w[3] = float64(c.SentMsgs)
			w[4] = float64(c.RecvMsgs)
			w[5] = float64(c.Flops)
		}
		t.enqueue(0, frame{kind: kindCtrl, src: t.rank, tag: epoch, payload: payload, release: true})
		return
	}
	need := len(t.procs) - 1
	wait := t.recvTimeout
	if wait <= 0 || wait > 5*time.Second {
		wait = 5 * time.Second
	}
	deadline := time.Now().Add(wait)
	timer := time.AfterFunc(wait, func() {
		t.bmu.Lock()
		t.bcond.Broadcast()
		t.bmu.Unlock()
	})
	t.bmu.Lock()
	for len(t.ctrl[epoch]) < need && !t.aborted && time.Now().Before(deadline) {
		t.bcond.Wait()
	}
	payloads := t.ctrl[epoch]
	delete(t.ctrl, epoch)
	t.bmu.Unlock()
	timer.Stop()
	for _, pl := range payloads {
		for i := 0; i+ctrlWords <= len(pl); i += ctrlWords {
			id := int(pl[i])
			if id < 0 || id >= t.p || t.isLocal[id] {
				continue
			}
			t.count[id] = machine.Counters{
				SentWords: int64(pl[i+1]),
				RecvWords: int64(pl[i+2]),
				SentMsgs:  int64(pl[i+3]),
				RecvMsgs:  int64(pl[i+4]),
				Flops:     int64(pl[i+5]),
			}
		}
		machine.Release(pl)
	}
}

// Counters implements machine.Transport. Remote ranks read zero until
// SyncCounters has merged them (coordinator only).
func (t *Transport) Counters(rank int) machine.Counters { return t.count[rank] }

// Network implements machine.Transport: the wire backend measures real
// time instead of modeling it.
func (t *Transport) Network() (machine.NetworkParams, bool) { return machine.NetworkParams{}, false }

// Times implements machine.Transport.
func (t *Transport) Times() []float64 { return nil }
