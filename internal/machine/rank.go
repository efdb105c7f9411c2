package machine

import (
	"fmt"
	"math"
)

// Rank is one process of a running program. A Rank value is only valid
// inside the goroutine Run created it for.
type Rank struct {
	m  *Machine
	id int
}

// ID returns this rank's id in [0, P).
func (r *Rank) ID() int { return r.id }

// Err returns the cancellation status of the context the enclosing
// RunCtx was started with (nil under plain Run). Rank programs poll it
// at communication-round boundaries so a cancelled multiplication stops
// between rounds instead of running to completion.
func (r *Rank) Err() error { return r.m.ctx.Err() }

// P returns the machine size.
func (r *Rank) P() int { return r.m.P() }

// Send delivers a copy of data to rank dst with the given tag. Sending to
// oneself is a local copy and is not counted as communication. Send never
// blocks (eager unbounded buffering).
func (r *Rank) Send(dst, tag int, data []float64) {
	r.send(dst, tag, data, false, false, 0)
}

// SendOwned delivers data to rank dst with the given tag, transferring
// ownership of the buffer to the machine (and ultimately the receiver)
// without copying. The caller must not touch data afterwards.
func (r *Rank) SendOwned(dst, tag int, data []float64) {
	r.send(dst, tag, data, true, false, 0)
}

// SendAt delivers a copy of data to dst stamped as departing at logical
// time at instead of this rank's current clock — the relay primitive of
// the async tree broadcast, which forwards a payload the moment it
// landed even though the relaying rank's clock has already advanced
// past that moment under overlapped compute. On untimed machines it is
// Send.
func (r *Rank) SendAt(dst, tag int, data []float64, at float64) {
	r.send(dst, tag, data, false, true, at)
}

// send is the one path every outgoing message takes: the fault plan's
// hook, the copy of a payload the caller keeps, the sender's half of
// the accounting (the sender counts at post, the receiver at take,
// self-sends are free), the clock's departure stamp, and delivery —
// into the destination's mailbox, or over the link when another process
// hosts it. Each rank mutates only its own Counters entry, so the
// counters need no lock.
func (r *Rank) send(dst, tag int, data []float64, owned, relay bool, at float64) {
	r.checkPeer(dst, "sends to")
	m := r.m
	if f := m.faults; f != nil && dst != r.id {
		drop, delay, corr := f.send(r.id, dst)
		if drop {
			if owned {
				Release(data)
			}
			return
		}
		data, owned = corruptPayload(data, owned, corr)
		// A delayed message departs late: a relay from its stamp, a plain
		// send from the sender's clock.
		if relay {
			at += delay
		} else if delay > 0 {
			relay, at = true, r.Now()+delay
		}
	}
	if !owned {
		cp := Loan(len(data))
		copy(cp, data)
		data = cp
	}
	if dst != r.id {
		m.count[r.id].SentWords += int64(len(data))
		m.count[r.id].SentMsgs++
	}
	var dep float64
	if m.clock != nil {
		dep = m.clock.depart(r.id, dst, relay, at)
	}
	if m.office[dst] == nil {
		m.link.Forward(r.id, dst, tag, data)
		return
	}
	m.office[dst].post(mailKey{src: r.id, tag: tag}, envelope{data: data, at: dep})
}

// corruptPayload applies an injected Corrupt rule to an outgoing
// payload. A copied send is first cloned into a pool buffer (the
// caller's data must never be mutated) and becomes an owned send; an
// owned payload is perturbed in place. Empty payloads pass untouched.
func corruptPayload(data []float64, owned bool, c *Corrupt) ([]float64, bool) {
	if c == nil || len(data) == 0 {
		return data, owned
	}
	if !owned {
		cp := Loan(len(data))
		copy(cp, data)
		data, owned = cp, true
	}
	i := c.Word % len(data)
	if c.Scale != 0 {
		data[i] *= c.Scale
	} else {
		data[i] = math.Float64frombits(math.Float64bits(data[i]) ^ (1 << 62))
	}
	return data, owned
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages from the same source with the same tag are
// delivered in send order. Receiving from oneself returns the locally
// sent copy and is not counted. The caller owns the returned buffer and
// may recycle it with Release once the payload is dead. On a timed
// machine a blocking receive is a receive posted and settled at the same
// instant: its β·words are charged serially on the rank's clock.
func (r *Rank) Recv(src, tag int) []float64 {
	r.checkPeer(src, "receives from")
	req := Request{r: r, src: src, tag: tag, post: r.Now()}
	return req.Wait()
}

// IRecv posts a non-blocking receive matched on (src, tag) and returns
// its Request; settle it with Wait. On a timed machine the transfer is
// charged to this rank's ingress port concurrently with any compute
// performed before settling — communication is hidden up to the
// compute time (§7.3) — whereas a blocking Recv serializes on the
// rank's clock. The payload buffer is owned by the caller exactly as
// with Recv.
func (r *Rank) IRecv(src, tag int) *Request {
	r.checkPeer(src, "receives from")
	return &Request{r: r, src: src, tag: tag, post: r.Now()}
}

// Request is a posted receive — the MPI_Request of this simulated
// machine: the posting rank continues immediately and settles the
// receive later with Wait, which is what lets a round loop compute on
// round i's panels while round i+1's are still in flight. Posting
// records the match key and the post time only; the mailbox take
// happens at Wait. A Request is owned by the rank that posted it and
// must only be used from that rank's goroutine.
type Request struct {
	r        *Rank
	src, tag int
	post     float64 // receiver's clock when the request was posted
	done     bool
	data     []float64
	at       float64
}

// Wait blocks until the message arrives and returns its payload. The
// caller owns the returned buffer and may hand it back with Release
// once dead. Waiting again returns the same payload. A Wait parked
// while the run is interrupted (peer failure or context cancellation)
// or past the SetRecvTimeout deadline unwinds with the machine's
// cancellation or deadline panic.
//
// This is the one take path: the receiver's half of the accounting, and
// on a timed machine the landing — the transfer advances the receiver's
// ingress port, not (directly) its compute clock, and only drags the
// clock forward if it finishes after it.
func (q *Request) Wait() []float64 {
	if q.done {
		return q.data
	}
	m, dst := q.r.m, q.r.id
	e := m.office[dst].take(mailKey{src: q.src, tag: q.tag}, m.recvTimeout)
	if q.src != dst {
		m.count[dst].RecvWords += int64(len(e.data))
		m.count[dst].RecvMsgs++
	}
	if m.clock != nil {
		q.at = m.clock.land(dst, q.src, e, q.post)
	}
	q.data, q.done = e.data, true
	return q.data
}

// At returns the logical time in seconds at which the payload landed
// (transfer completion on the receiver's ingress port). It is zero on
// untimed machines and before Wait, and is the stamp a collective tree
// relays a payload onward with — crediting the relay to the moment the
// data arrived, not to wherever the relaying rank's compute-advanced
// clock happens to be.
func (q *Request) At() float64 { return q.at }

// Now returns this rank's current logical clock in seconds on a timed
// machine and zero on an untimed one — the landing time an async
// broadcast's root reports for its own payload.
func (r *Rank) Now() float64 {
	if c := r.m.clock; c != nil {
		return c.now[r.id]
	}
	return 0
}

// Compute registers flops floating-point operations of local work —
// algorithms call it around their kernel invocations, once per
// communication round, so a timed machine can charge γ·flops to this
// rank's clock. It is also the round clock of the fault plan: a
// scheduled RankDeath fires here.
func (r *Rank) Compute(flops int64) {
	m := r.m
	m.count[r.id].Flops += flops
	if m.clock != nil {
		m.clock.compute(r.id, flops)
	}
	if f := m.faults; f != nil {
		f.compute(m.clock, r.id, flops)
	}
}

func (r *Rank) checkPeer(peer int, verb string) {
	if peer < 0 || peer >= r.m.P() {
		panic(fmt.Sprintf("machine: rank %d %s invalid rank %d", r.id, verb, peer))
	}
}
