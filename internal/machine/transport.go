package machine

import (
	"sync"
	"time"
)

// Transport is the wire beneath a Machine: it delivers tagged payloads
// between ranks and accounts for their cost. Two backends exist — the
// counting transport (exact word/message accounting, the mpiP stand-in
// of §2.3) and the timed transport (an α-β-γ event-clock model that
// additionally predicts runtime). Both share the keyed-mailbox delivery
// machinery, so any algorithm written against Rank runs unchanged on
// either.
type Transport interface {
	// P returns the number of ranks the transport connects.
	P() int
	// Send delivers data from src to dst, matched at the receiver on
	// (src, tag). When owned, the transport takes ownership of data
	// (zero-copy); otherwise it copies before returning. Send never
	// blocks (eager unbounded buffering).
	Send(src, dst, tag int, data []float64, owned bool)
	// Recv blocks until a message from src with the given tag arrives
	// at dst and returns its payload. Same-(src, tag) messages are
	// delivered in send order. The caller owns the returned buffer and
	// may hand it back with Release once dead.
	Recv(dst, src, tag int) []float64
	// ISend posts a non-blocking send and returns its Request. Both
	// transports buffer eagerly, so the operation completes at post
	// time; on the timed transport the departure is stamped from the
	// sender's current clock exactly like Send.
	ISend(src, dst, tag int, data []float64, owned bool) Request
	// IRecv posts a non-blocking receive matched on (src, tag) at dst
	// and returns its Request. On the timed transport the transfer is
	// accounted on the receiver's ingress port, concurrent with any
	// compute the rank performs before settling the request.
	IRecv(dst, src, tag int) Request
	// SendAt delivers data stamped as departing at logical time at
	// (plus α) instead of the sender's current clock — the relay
	// primitive of the async tree collectives, which forward a payload
	// onward at the moment it landed even though the relaying rank's
	// clock has already been advanced past that moment by overlapped
	// compute. Untimed transports treat it exactly as Send.
	SendAt(src, dst, tag int, data []float64, owned bool, at float64)
	// Compute charges flops floating-point operations to rank.
	Compute(rank int, flops int64)
	// BarrierSync runs once per completed machine barrier, with every
	// rank parked; timed transports propagate clocks here.
	BarrierSync()
	// Interrupt wakes every rank blocked in Recv with a cancellation
	// panic (recovered by the machine's rank wrapper), so a cancelled
	// Run terminates instead of deadlocking on a half-finished
	// schedule. Reset re-arms the transport for the next Run.
	Interrupt()
	// SetRecvTimeout bounds every blocking receive (Recv and
	// Request.Wait): a rank parked longer than d unwinds with a
	// deadline panic that the machine reports as the run's root cause,
	// so a lost peer cannot park a rank forever. Zero (the default)
	// disables the bound.
	SetRecvTimeout(d time.Duration)
	// Reset clears counters and clocks at the start of a Run.
	Reset()
	// Counters returns rank's accumulated traffic.
	Counters(rank int) Counters
	// Network returns the cost parameters and true for timed transports.
	Network() (NetworkParams, bool)
	// Times returns the per-rank logical clocks in seconds, nil when the
	// transport is untimed.
	Times() []float64
}

// mailKey identifies one receive queue: messages are matched MPI-style
// on (source, tag).
type mailKey struct{ src, tag int }

// envelope is one in-flight message. at is its arrival time at the
// receiver (zero on the counting transport).
type envelope struct {
	data []float64
	at   float64
}

// mailQueue is the FIFO of pending messages for one (src, tag) key. Its
// cond shares the owning postOffice's mutex; head avoids reslicing the
// front on every pop.
type mailQueue struct {
	cond *sync.Cond
	msgs []envelope
	head int
}

func (q *mailQueue) push(e envelope) {
	q.msgs = append(q.msgs, e)
	q.cond.Broadcast()
}

// pop removes the oldest message; the caller must hold the office mutex
// and have checked q.empty() is false. Once the dead prefix dominates,
// the live tail compacts to the front so a queue that never fully
// drains (fast sender, lagging receiver) stays O(pending), not
// O(ever sent).
func (q *mailQueue) pop() envelope {
	e := q.msgs[q.head]
	q.msgs[q.head] = envelope{}
	q.head++
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head = 0
	} else if q.head > len(q.msgs)/2 {
		n := copy(q.msgs, q.msgs[q.head:])
		for i := n; i < len(q.msgs); i++ {
			q.msgs[i] = envelope{}
		}
		q.msgs = q.msgs[:n]
		q.head = 0
	}
	return e
}

func (q *mailQueue) empty() bool { return q.head == len(q.msgs) }

// postOffice is one rank's set of keyed mailboxes. Replacing the single
// linear queue of the original machine, lookups are O(1) in the number
// of pending messages and receivers of different keys never contend on
// a scan. closed marks the office interrupted by a cancelled Run:
// receivers drain what has already arrived and then panic instead of
// parking forever.
type postOffice struct {
	mu     sync.Mutex
	slots  map[mailKey]*mailQueue
	closed bool
}

func newPostOffice() *postOffice {
	return &postOffice{slots: make(map[mailKey]*mailQueue)}
}

// slot returns (creating if needed) the queue for k; callers hold mu.
func (po *postOffice) slot(k mailKey) *mailQueue {
	q := po.slots[k]
	if q == nil {
		q = &mailQueue{cond: sync.NewCond(&po.mu)}
		po.slots[k] = q
	}
	return q
}

// post delivers a message under key k.
func (po *postOffice) post(k mailKey, e envelope) {
	po.mu.Lock()
	po.slot(k).push(e)
	po.mu.Unlock()
}

// take blocks until a message under k arrives, the office is
// interrupted (drain what already arrived, then raise the cancellation
// panic) or, with timeout > 0, the deadline expires (raise the timeout
// panic). This one method is the blocking-receive discipline of every
// transport backend — counting, timed and wire.
func (po *postOffice) take(k mailKey, timeout time.Duration) envelope {
	po.mu.Lock()
	q := po.slot(k)
	if timeout <= 0 {
		for q.empty() && !po.closed {
			q.cond.Wait()
		}
	} else {
		deadline := time.Now().Add(timeout)
		// The timer only wakes the cond; the waiter itself decides
		// whether the deadline truly passed (a push may race the fire).
		timer := time.AfterFunc(timeout, func() {
			po.mu.Lock()
			q.cond.Broadcast()
			po.mu.Unlock()
		})
		expired := false
		for q.empty() && !po.closed && !expired {
			q.cond.Wait()
			expired = q.empty() && !po.closed && !time.Now().Before(deadline)
		}
		timer.Stop()
		if expired {
			po.mu.Unlock()
			panic(timeoutPanic{key: k, timeout: timeout})
		}
	}
	if q.empty() {
		po.mu.Unlock()
		panic(interruptedPanic{})
	}
	e := q.pop()
	po.mu.Unlock()
	return e
}

// tryTake pops a pending message under k if one has arrived. An
// interrupted office with nothing left to drain raises the
// cancellation panic, like take.
func (po *postOffice) tryTake(k mailKey) (envelope, bool) {
	po.mu.Lock()
	q := po.slot(k)
	if q.empty() {
		closed := po.closed
		po.mu.Unlock()
		if closed {
			panic(interruptedPanic{})
		}
		return envelope{}, false
	}
	e := q.pop()
	po.mu.Unlock()
	return e, true
}

// interrupt closes the office and wakes all parked receivers.
func (po *postOffice) interrupt() {
	po.mu.Lock()
	po.closed = true
	for _, q := range po.slots {
		q.cond.Broadcast()
	}
	po.mu.Unlock()
}

// reset drains every mailbox and clears interruption, retaining the
// queues (and their condition variables) for allocation-free reuse.
func (po *postOffice) reset() {
	po.mu.Lock()
	for _, q := range po.slots {
		for i := range q.msgs {
			q.msgs[i] = envelope{} // release stale payload references
		}
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	po.closed = false
	po.mu.Unlock()
}

// counting is the exact-accounting transport: it moves payloads through
// keyed mailboxes and counts per-rank words, messages and flops.
// Internal copies are drawn from the shared buffer pool.
type counting struct {
	p      int
	office []*postOffice
	count  []Counters
	// recvTimeout bounds blocking takes; zero disables. Written by
	// SetRecvTimeout before a Run starts, read by rank goroutines.
	recvTimeout time.Duration
}

func newCounting(p int) *counting {
	t := &counting{
		p:      p,
		office: make([]*postOffice, p),
		count:  make([]Counters, p),
	}
	for i := range t.office {
		t.office[i] = newPostOffice()
	}
	return t
}

// P implements Transport.
func (t *counting) P() int { return t.p }

// post delivers a message stamped with arrival time at; it implements
// both transports' sends. Each rank mutates only its own Counters entry,
// so the counters need no lock.
func (t *counting) post(src, dst, tag int, data []float64, owned bool, at float64) {
	if !owned {
		cp := Loan(len(data))
		copy(cp, data)
		data = cp
	}
	if dst != src {
		t.count[src].SentWords += int64(len(data))
		t.count[src].SentMsgs++
	}
	t.office[dst].post(mailKey{src: src, tag: tag}, envelope{data: data, at: at})
}

// interruptedPanic is the sentinel a blocked Recv raises when the Run's
// context is cancelled; the machine's rank wrapper recovers it.
type interruptedPanic struct{}

// timeoutPanic is the sentinel a blocked Recv raises when its
// SetRecvTimeout deadline expires before a matching message arrives —
// the lost-peer escape hatch. The machine's rank wrapper recovers it
// and reports it as the run's root cause.
type timeoutPanic struct {
	key     mailKey
	timeout time.Duration
}

// take blocks until a message under (src, tag) arrives at dst, or the
// office is interrupted by a cancelled Run, or the recv timeout (if
// set) expires.
func (t *counting) take(dst, src, tag int) envelope {
	e := t.office[dst].take(mailKey{src: src, tag: tag}, t.recvTimeout)
	if src != dst {
		t.count[dst].RecvWords += int64(len(e.data))
		t.count[dst].RecvMsgs++
	}
	return e
}

// tryTake is the non-blocking variant of take behind Request.Test: it
// pops a pending message if one has arrived and reports false
// otherwise. Like take, an interrupted office with nothing left to
// drain unwinds the rank with the cancellation panic.
func (t *counting) tryTake(dst, src, tag int) (envelope, bool) {
	e, ok := t.office[dst].tryTake(mailKey{src: src, tag: tag})
	if !ok {
		return envelope{}, false
	}
	if src != dst {
		t.count[dst].RecvWords += int64(len(e.data))
		t.count[dst].RecvMsgs++
	}
	return e, true
}

// SetRecvTimeout implements Transport.
func (t *counting) SetRecvTimeout(d time.Duration) { t.recvTimeout = d }

// Send implements Transport.
func (t *counting) Send(src, dst, tag int, data []float64, owned bool) {
	t.post(src, dst, tag, data, owned, 0)
}

// SendAt implements Transport: the counting transport has no clocks, so
// a relayed send is an ordinary send.
func (t *counting) SendAt(src, dst, tag int, data []float64, owned bool, at float64) {
	t.post(src, dst, tag, data, owned, 0)
}

// Recv implements Transport.
func (t *counting) Recv(dst, src, tag int) []float64 {
	return t.take(dst, src, tag).data
}

// ISend implements Transport: sends buffer eagerly, so the request is
// already complete.
func (t *counting) ISend(src, dst, tag int, data []float64, owned bool) Request {
	t.post(src, dst, tag, data, owned, 0)
	return completedRequest{}
}

// IRecv implements Transport: the match key is recorded now, the
// mailbox take happens at Wait/Test.
func (t *counting) IRecv(dst, src, tag int) Request {
	return &countingRecv{t: t, dst: dst, src: src, tag: tag}
}

// Compute implements Transport.
func (t *counting) Compute(rank int, flops int64) {
	t.count[rank].Flops += flops
}

// BarrierSync implements Transport: counting has no clocks to propagate.
func (t *counting) BarrierSync() {}

// Interrupt implements Transport: it closes every post office and wakes
// all parked receivers so they can bail out of a cancelled Run.
func (t *counting) Interrupt() {
	for _, po := range t.office {
		po.interrupt()
	}
}

// Reset implements Transport. Besides the counters, it drains every
// mailbox and clears interruption: a previous Run that failed or was
// cancelled mid-schedule may have left undelivered envelopes behind,
// which must not leak into the next Run. The mailboxes themselves (and
// their condition variables) are retained, so a reused machine's round
// loop allocates nothing for delivery at steady state.
func (t *counting) Reset() {
	for i := range t.count {
		t.count[i] = Counters{}
	}
	for _, po := range t.office {
		po.reset()
	}
}

// Counters implements Transport.
func (t *counting) Counters(rank int) Counters { return t.count[rank] }

// Network implements Transport.
func (t *counting) Network() (NetworkParams, bool) { return NetworkParams{}, false }

// Times implements Transport.
func (t *counting) Times() []float64 { return nil }
