package machine

import (
	"fmt"
	"math"
	"time"
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
	r.send(dst, tag, data, nil, false, false, 0)
}

// SendOwned delivers data to rank dst with the given tag, transferring
// ownership of the buffer to the machine (and ultimately the receiver)
// without copying. The caller must not touch data afterwards.
func (r *Rank) SendOwned(dst, tag int, data []float64) {
	r.send(dst, tag, data, nil, true, false, 0)
}

// SendAt delivers a copy of data to dst stamped as departing at logical
// time at instead of this rank's current clock — the relay primitive of
// the async tree broadcast, which forwards a payload the moment it
// landed even though the relaying rank's clock has already advanced
// past that moment under overlapped compute. On untimed machines it is
// Send.
func (r *Rank) SendAt(dst, tag int, data []float64, at float64) {
	r.send(dst, tag, data, nil, false, true, at)
}

// SendShared delivers the shared payload sh to rank dst by reference:
// the receiver reads sh's buffer in place, under a hold added for it
// before the message is posted, and the message counts the words sh
// was shared with, not the buffer's length. Where it cannot travel by
// reference — to a rank another process hosts, or perturbed by a
// Corrupt link fault — the receiver gets a copy of its own instead,
// with the same count; a perturbed copy arrives under a new handle
// holding it once for the receiver, which may share it on.
func (r *Rank) SendShared(dst, tag int, sh *Shared) {
	r.send(dst, tag, nil, sh, false, false, 0)
}

// SendSharedAt is SendShared stamped as departing at logical time at,
// as SendAt is Send: the relay primitive of a by-reference broadcast.
func (r *Rank) SendSharedAt(dst, tag int, sh *Shared, at float64) {
	r.send(dst, tag, nil, sh, false, true, at)
}

// send is the one path every outgoing message takes: the fault plan's
// link rule (drop, corrupt, delay), the copy of a payload the caller
// keeps or the hold on a shared one (sh non-nil: data and the word count
// are sh's), the sender's half of the accounting (the sender counts at
// post, the receiver at take, self-sends are free), the clock's
// departure stamp, and delivery — into the destination's mailbox, or
// over the link when another process hosts it. Each rank mutates only
// its own Counters entry, so the counters need no lock.
func (r *Rank) send(dst, tag int, data []float64, sh *Shared, owned, relay bool, at float64) {
	r.checkPeer(dst, "sends to")
	m := r.m
	words := len(data)
	if sh != nil {
		data, words = sh.data, sh.words
	}
	if f := m.faults; f != nil && dst != r.id {
		if l := f.link(r.id, dst); l != nil {
			if l.Drop {
				if owned {
					Release(data)
				}
				return
			}
			if l.Corrupt && len(data) > 0 {
				data, owned = corrupt(data, owned, l.Word, l.Scale)
				if sh != nil {
					// The receiver's own perturbed copy, under a handle
					// of its own that it can share on.
					sh = &Shared{data: data, words: words}
				}
			}
			if l.Wall > 0 {
				time.Sleep(l.Wall)
			}
			// A delayed message departs late: a relay from its stamp, a
			// plain send from the sender's clock.
			if relay {
				at += l.Seconds
			} else if l.Seconds > 0 {
				relay, at = true, r.Now()+l.Seconds
			}
		}
	}
	if sh != nil && m.office[dst] != nil {
		sh.holds.Add(1)
	} else if !owned {
		cp := Loan(len(data))
		copy(cp, data)
		data, sh = cp, nil
	}
	if dst != r.id {
		m.count[r.id].SentWords += int64(words)
		m.count[r.id].SentMsgs++
	}
	var dep float64
	if m.clock != nil {
		dep = m.clock.depart(r.id, dst, relay, at)
	}
	if m.office[dst] == nil {
		m.link.Forward(r.id, dst, tag, data, words)
		return
	}
	m.office[dst].post(mailKey{src: r.id, tag: tag}, envelope{data: data, words: words, sh: sh, at: dep})
}

// corrupt perturbs word (modulo the length) of a non-empty outgoing
// payload: multiplied by scale, or with scale 0 its exponent bit 62
// flipped. A copied or shared send is first cloned into a pool buffer
// (the caller's data must never be mutated, nor a buffer other ranks
// read) and becomes an owned send; an owned payload is perturbed in
// place. A packed panel is perturbed in its packed layout.
func corrupt(data []float64, owned bool, word int, scale float64) ([]float64, bool) {
	if !owned {
		cp := Loan(len(data))
		copy(cp, data)
		data, owned = cp, true
	}
	i := word % len(data)
	if scale != 0 {
		data[i] *= scale
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
	var req Request
	r.PostRecv(&req, src, tag)
	return req.Wait()
}

// PostRecv posts q, storage the caller owns, as a non-blocking receive
// matched on (src, tag), overwriting whatever q held; settle it with
// Wait. On a timed machine the transfer is charged to this rank's
// ingress port concurrently with any compute performed before settling
// (§7.3), whereas a blocking Recv serializes on the rank's clock.
// Posting allocates nothing: a collective keeps its receives in an
// array or its Pendings, the MPI_Irecv/MPI_Waitall pattern.
func (r *Rank) PostRecv(q *Request, src, tag int) {
	r.checkPeer(src, "receives from")
	*q = Request{r: r, src: src, tag: tag, post: r.Now()}
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
	words    int
	sh       *Shared
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
		m.count[dst].RecvWords += int64(e.words)
		m.count[dst].RecvMsgs++
	}
	if m.clock != nil {
		q.at = m.clock.land(dst, q.src, e, q.post)
	}
	q.data, q.words, q.sh, q.done = e.data, e.words, e.sh, true
	return q.data
}

// Shared returns the handle the message was delivered under by
// reference (Rank.SendShared): the receiver reads the payload in place
// and drops the hold taken for it instead of releasing the buffer — a
// perturbed copy of a shared payload comes under a handle of its own.
// It is nil when the receiver owns the payload — a copied send, a
// cross-process copy of a shared one — and before Wait.
func (q *Request) Shared() *Shared { return q.sh }

// Words returns the words the message counted: the payload's length,
// or the logical size of a packed panel shared with it (Share). Valid
// once Wait has returned.
func (q *Request) Words() int { return q.words }

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
// rank's clock. It is also the round clock of the fault plan: it closes
// one round, a scheduled RankDeath fires here and a SlowRank's
// PerCompute stall is taken here.
func (r *Rank) Compute(flops int64) {
	r.Charge(flops)
	if f := r.m.faults; f != nil {
		f.round(r.id)
	}
}

// Charge registers flops of local work inside the current round — a
// round multiplied in several pieces calls Compute for its first and
// Charge for the rest. The flop counter, a timed machine's clock and a
// SlowRank's Factor see every piece; the fault plan's round count does
// not advance.
func (r *Rank) Charge(flops int64) {
	m := r.m
	m.count[r.id].Flops += flops
	if m.clock != nil {
		m.clock.compute(r.id, flops)
	}
	if f := m.faults; f != nil {
		f.skew(m.clock, r.id, flops)
	}
}

func (r *Rank) checkPeer(peer int, verb string) {
	if peer < 0 || peer >= r.m.P() {
		panic(fmt.Sprintf("machine: rank %d %s invalid rank %d", r.id, verb, peer))
	}
}
