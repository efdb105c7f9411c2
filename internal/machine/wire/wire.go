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
	// Respawn, when set, lets Recover re-exec a dead worker process:
	// it is called with the process index and address of each dead
	// peer before the lost connections are rebuilt. Only the launcher
	// process needs it — peers with a nil Respawn simply reconnect to
	// whatever comes back up at the dead peer's address.
	Respawn func(proc int, addr string) error
}

// Transport is the socket mesh behind a multi-process machine, the
// machine.Link of machine.NewLinked: a message for a rank hosted by
// another process becomes a length-prefixed frame on the connection to
// that process, and is handed at the far end to that process's Machine,
// which posts it into the same (src, tag)-keyed mailbox an in-process
// send would have reached — so rank programs (and the tree collectives
// built on them) run unchanged and produce bitwise-identical results.
// Everything a message costs or can suffer — counting, deadlines, fault
// injection — happens in the Machine; the Transport only moves frames
// and keeps the processes' runs aligned.
type Transport struct {
	p       int
	rank    int      // bootstrap rank identifying this process
	procs   []string // unique peer addresses, in first-rank order
	self    int      // our index in procs
	procOf  []int    // rank → process index
	local   []int    // ranks hosted by this process
	isLocal []bool

	// deliver and interrupt are the bound machine's half of the link
	// (Bind): deliver is called under bmu — only for frames of the run
	// in progress, so never before the machine's first Begin — and
	// interrupt is read under fmu.
	deliver   func(dst, src, tag int, data []float64)
	interrupt func()

	dialT   time.Duration
	respawn func(proc int, addr string) error

	ln net.Listener
	// peers holds one connection per peer process (nil at self and for
	// lost peers); slots are atomic so Recover can swap a rebuilt
	// connection in while reader goroutines of other peers still route
	// frames.
	peers []atomic.Pointer[peer]

	dead      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// fmu guards the failure record and the interrupt callback.
	fmu      sync.Mutex
	failed   error  // sticky: a connection died; poisons later runs
	deadProc []bool // per process: its connection is gone (crash or clean exit)
	abortErr error  // per-run: a peer aborted; cleared by Begin

	// bmu guards the run/abort/ctrl bookkeeping; bcond wakes the
	// coordinator parked in MergeCounters.
	bmu     sync.Mutex
	bcond   *sync.Cond
	aborted bool
	epoch   int64 // run number; advanced by Begin, aligned across processes
	// pendingAbort is the epoch of an ABORT frame that arrived from a
	// process already ahead of us; it is applied when Begin advances us
	// to that run.
	pendingAbort int64
	// early buffers data frames from a peer already in a later run
	// than us; Begin delivers them once we catch up.
	early []frame
	ctrl  map[int64][][]float64 // coordinator: counter payloads per epoch
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
// process, with no sockets — nothing is ever forwarded. It exists so
// the linked machine's paths (run epochs, the result gather of the
// distributed plans) can be exercised without a cluster.
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
		p:       p,
		rank:    cfg.Rank,
		procOf:  make([]int, p),
		isLocal: make([]bool, p),
		dialT:   cfg.dialTimeout(),
		respawn: cfg.Respawn,
		dead:    make(chan struct{}),
		ctrl:    make(map[int64][][]float64),
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
// epoch before its first Begin.
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
// the survivors are, so its next Begin lands on the same epoch as
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
		t.interruptLocal() // wake any rank still parked in a receive
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
		// atomic with respect to Begin advancing the run.
		t.bmu.Lock()
		switch {
		case f.epoch == t.epoch:
			t.deliver(f.dst, f.src, int(f.tag), f.payload)
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
	t.fmu.Unlock()
	if first {
		t.interruptLocal()
	}
}

// interruptLocal unwinds the bound machine's run — its parked receivers
// wake, and it calls Abort in turn. A transport no machine is bound to
// yet has no run to unwind.
func (t *Transport) interruptLocal() {
	t.fmu.Lock()
	cb := t.interrupt
	t.fmu.Unlock()
	if cb != nil {
		cb()
	}
}

// remoteAbort handles a peer's ABORT frame for the given run epoch:
// the matching run is interrupted (once) and the reason recorded for
// Failure, but the condition is per-run — the peer is alive and will
// Begin the next run with us. A stale epoch (that run already ended
// here) is dropped; a future one is remembered and applied when Begin
// advances us to it, so an abort can never poison the wrong run.
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
	t.fmu.Unlock()
	t.interruptLocal()
}

// ErrPeerFailure marks every failure caused by a peer process rather
// than by this one — a lost connection, a peer's abort broadcast, a
// counter merge starved of a late peer. Match it with errors.Is on the
// error Run returns; it is the wire-level signal a retry layer treats as
// transient (call Recover, then run again).
var ErrPeerFailure = errors.New("peer process failure")

var errAbortedByPeer = fmt.Errorf("wire: run aborted by a peer process (%w)", ErrPeerFailure)

// Failure implements machine.Link: the sticky connection failure if
// any, else the per-run peer abort.
func (t *Transport) Failure() error {
	t.fmu.Lock()
	defer t.fmu.Unlock()
	if t.failed != nil {
		return t.failed
	}
	return t.abortErr
}

// Bind implements machine.Link.
func (t *Transport) Bind(deliver func(dst, src, tag int, data []float64), interrupt func()) {
	t.bmu.Lock()
	t.deliver = deliver
	t.bmu.Unlock()
	t.fmu.Lock()
	t.interrupt = interrupt
	t.fmu.Unlock()
}

// Ranks implements machine.Link.
func (t *Transport) Ranks() (p int, local []int) { return t.p, t.local }

// Forward implements machine.Link: the message becomes a data frame on
// the destination process's connection, stamped with the run it belongs
// to. Reading epoch without bmu is safe on this path: only Begin writes
// it, and Begin is sequenced before (and after) the rank goroutines that
// send.
func (t *Transport) Forward(src, dst, tag int, data []float64) {
	t.enqueue(t.procOf[dst], frame{kind: kindData, src: src, dst: dst, tag: int64(tag), epoch: t.epoch, payload: data, release: true})
}

// Abort implements machine.Link: once per run, every peer process is
// told to unwind too, and a coordinator parked in MergeCounters wakes.
func (t *Transport) Abort() {
	t.bmu.Lock()
	already := t.aborted
	t.aborted = true
	epoch := t.epoch
	t.bcond.Broadcast()
	t.bmu.Unlock()
	if !already {
		for pi := range t.peers {
			if t.peers[pi].Load() != nil {
				t.enqueue(pi, frame{kind: kindAbort, src: t.rank, epoch: epoch})
			}
		}
	}
}

// Begin implements machine.Link: the run epoch advances (in lockstep on
// every process, since runs are collective) and counter payloads left
// over from earlier runs are dropped. A transport whose connection has
// died stays poisoned, and a peer may already have aborted the run being
// started — either way Begin says so, so the run fails fast with the
// recorded failure instead of hanging.
func (t *Transport) Begin(reset func()) error {
	t.fmu.Lock()
	t.abortErr = nil
	failed := t.failed
	t.fmu.Unlock()
	t.bmu.Lock()
	t.epoch++
	pendingHit := t.pendingAbort == t.epoch
	t.aborted = failed != nil || pendingHit
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
	// decisions can never interleave with a half-done Begin.
	reset()
	keep := t.early[:0]
	for _, f := range t.early {
		switch {
		case f.epoch == t.epoch:
			t.deliver(f.dst, f.src, int(f.tag), f.payload)
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
	return t.Failure()
}

// Recover heals the mesh after peer-process loss: dead workers are
// re-execed (when Config.Respawn is set), only the lost connections
// are rebuilt — survivors keep theirs — and the sticky transport
// failure is cleared so the next Begin starts a clean run. It is a
// collective: every surviving process must call it between runs (the
// engine's retry layer does), each rebuilding its own lost
// connections, while the rejoining process simply runs New — that
// dials and accepts exactly the connections the survivors are
// rebuilding, and adopts their run epoch through the handshake, so its
// first Begin lands on the same run as their retry. With nothing lost,
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

// MergeCounters implements machine.Link: a collective that merges
// every process's per-rank traffic counters into the coordinator's
// count, so rank 0's process reports machine-wide volumes. Every process
// must call it after the same (successful) run. The coordinator waits
// at most wait (capped at, and when zero defaulting to, 5 s) for the
// peers' payloads; if one is still missing then, the counters of its
// ranks would read zero and every aggregate under-report, so that is an
// error wrapping ErrPeerFailure, not a smaller number.
func (t *Transport) MergeCounters(count []machine.Counters, wait time.Duration) error {
	if len(t.procs) == 1 {
		return nil
	}
	t.bmu.Lock()
	epoch := t.epoch
	t.bmu.Unlock()
	if t.self != 0 {
		payload := machine.Loan(ctrlWords * len(t.local))
		for i, id := range t.local {
			c := count[id]
			w := payload[ctrlWords*i:]
			w[0] = float64(id)
			w[1] = float64(c.SentWords)
			w[2] = float64(c.RecvWords)
			w[3] = float64(c.SentMsgs)
			w[4] = float64(c.RecvMsgs)
			w[5] = float64(c.Flops)
		}
		t.enqueue(0, frame{kind: kindCtrl, src: t.rank, tag: epoch, payload: payload, release: true})
		return nil
	}
	need := len(t.procs) - 1
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
			count[id] = machine.Counters{
				SentWords: int64(pl[i+1]),
				RecvWords: int64(pl[i+2]),
				SentMsgs:  int64(pl[i+3]),
				RecvMsgs:  int64(pl[i+4]),
				Flops:     int64(pl[i+5]),
			}
		}
		machine.Release(pl)
	}
	if len(payloads) < need {
		return fmt.Errorf("wire: counter merge of run %d got %d of %d peer payloads within %v (%w)",
			epoch, len(payloads), need, wait, ErrPeerFailure)
	}
	return nil
}
