package machine

import (
	"sync"
	"time"
)

// mailKey identifies one receive queue: messages are matched MPI-style
// on (source, tag).
type mailKey struct{ src, tag int }

// envelope is one in-flight message. at is the time it left the
// sender's injection port (zero on a machine without a clock).
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
// panic). This one method is the machine's blocking-receive discipline,
// whatever clock or link it carries.
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

// interruptedPanic is the sentinel a blocked Recv raises when the run is
// interrupted (cancellation or a failed peer); the machine's rank
// wrapper recovers it.
type interruptedPanic struct{}

// timeoutPanic is the sentinel a blocked Recv raises when its
// SetRecvTimeout deadline expires before a matching message arrives —
// the lost-peer escape hatch. The machine's rank wrapper recovers it
// and reports it as the run's root cause.
type timeoutPanic struct {
	key     mailKey
	timeout time.Duration
}
