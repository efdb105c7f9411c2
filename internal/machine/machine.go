package machine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"
)

// Counters aggregates one rank's traffic and work.
type Counters struct {
	SentWords int64 // float64 words sent to other ranks
	RecvWords int64 // float64 words received from other ranks
	SentMsgs  int64 // messages sent
	RecvMsgs  int64 // messages received
	Flops     int64 // floating-point operations registered via Compute
}

// Volume returns the rank's total communication volume in words
// (sent + received), the per-rank quantity reported in Table 4.
func (c Counters) Volume() int64 { return c.SentWords + c.RecvWords }

// Messages returns the rank's total message count (sent + received),
// the latency proxy L of §2.3.
func (c Counters) Messages() int64 { return c.SentMsgs + c.RecvMsgs }

// MultiProcess is implemented by transports whose p ranks span several
// OS processes (the wire backend): LocalRanks lists the ranks hosted in
// this process, and Run executes the rank program only for those —
// every peer process runs its own Machine over its own slice of the
// same logical machine. In-process transports host all p ranks and do
// not implement it.
type MultiProcess interface {
	LocalRanks() []int
}

// failer is implemented by transports that can fail asynchronously (a
// wire peer dying mid-run); RunCtx surfaces the failure as the run's
// root cause instead of the collateral interruptions it triggers.
type failer interface {
	Failure() error
}

// aborter is implemented by transports that learn about remote
// failures asynchronously (a peer process aborting or a connection
// dropping): the machine registers its interrupt here so a remote
// abort poisons the local barrier and wakes parked ranks.
type aborter interface {
	OnAbort(func())
}

// counterSyncer is implemented by multi-process transports that can
// merge per-process counters after a run; see Machine.SyncCounters.
type counterSyncer interface {
	SyncCounters()
}

// Machine is a simulated distributed machine of p ranks over a
// Transport.
type Machine struct {
	t       Transport
	barrier *barrier
	// local is the subset of ranks this process runs programs for —
	// all p of them except on multi-process transports.
	local []int
	// ctx is the context of the Run in progress (Background between
	// Runs). It is written before the rank goroutines start and read by
	// them through Rank.Err, so it needs no lock.
	ctx context.Context
	// faults is the compiled fault plan, nil unless SetFaultPlan
	// installed one — the nil check is the entire cost of the clean
	// path. Written only between Runs.
	faults *faultState
}

// New returns a machine with p ranks on the counting transport.
func New(p int) *Machine {
	checkP(p)
	return NewWithTransport(newCounting(p))
}

// NewTimed returns a machine with p ranks on the timed α-β-γ transport.
func NewTimed(p int, net NetworkParams) *Machine {
	checkP(p)
	return NewWithTransport(newTimed(p, net))
}

// NewWithNetwork returns a counting machine when net is nil and a timed
// machine otherwise — the one-liner the algorithm implementations use to
// honor an optional network configuration.
func NewWithNetwork(p int, net *NetworkParams) *Machine {
	if net == nil {
		return New(p)
	}
	return NewTimed(p, *net)
}

// NewWithTransport returns a machine over an arbitrary transport
// backend. On a MultiProcess transport the machine runs programs only
// for the locally hosted ranks, its barrier spans those ranks (the
// transport's BarrierSync performs the inter-process half), and remote
// aborts interrupt the local run.
func NewWithTransport(t Transport) *Machine {
	checkP(t.P())
	local := make([]int, t.P())
	for i := range local {
		local[i] = i
	}
	if mp, ok := t.(MultiProcess); ok {
		local = mp.LocalRanks()
		if len(local) < 1 {
			panic("machine: multi-process transport hosts no local ranks")
		}
	}
	m := &Machine{t: t, barrier: newBarrier(len(local), t.BarrierSync), local: local, ctx: context.Background()}
	if ab, ok := t.(aborter); ok {
		ab.OnAbort(m.interrupt)
	}
	return m
}

func checkP(p int) {
	if p < 1 {
		panic(fmt.Sprintf("machine: p = %d must be ≥ 1", p))
	}
}

// P returns the number of ranks.
func (m *Machine) P() int { return m.t.P() }

// Transport returns the machine's transport backend.
func (m *Machine) Transport() Transport { return m.t }

// Run executes program on every rank concurrently and waits for all of
// them. A panic in any rank is recovered and reported as an error; the
// first error (by rank order) is returned. Counters, clocks and barrier
// poisoning reset at the start of each Run.
func (m *Machine) Run(program func(r *Rank) error) error {
	return m.RunCtx(context.Background(), program)
}

// RunCtx is Run under a context. When ctx is cancelled mid-run the
// barrier is poisoned and every rank blocked in Recv is woken, so the
// whole machine unwinds promptly and RunCtx returns ctx.Err(); rank
// programs additionally poll Rank.Err at their communication-round
// boundaries so compute-bound ranks notice too. The machine remains
// reusable afterwards — the next Run resets mailboxes and poisoning.
func (m *Machine) RunCtx(ctx context.Context, program func(r *Rank) error) error {
	m.t.Reset()
	m.barrier.reset()
	if m.faults != nil {
		m.faults.reset()
	}
	m.ctx = ctx
	// The cancellation callback must not outlive this Run: a pooled
	// machine is reused (and Reset) the moment RunCtx returns, and a
	// straggling poison/Interrupt would sabotage the next run. stop()
	// does not wait for an in-flight callback, so the callback signals
	// completion and RunCtx waits for it when it already fired.
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(fired)
		m.interrupt()
	})
	defer func() {
		if !stop() {
			<-fired
		}
	}()
	errs := make([]error, len(m.local))
	var wg sync.WaitGroup
	wg.Add(len(m.local))
	for i, id := range m.local {
		go func(i, id int) {
			defer wg.Done()
			defer func() {
				switch r := recover().(type) {
				case nil:
				case interruptedPanic:
					errs[i] = fmt.Errorf("machine: rank %d: %w", id, errInterrupted)
				case poisonedPanic:
					// A poisoned barrier is collateral of whichever rank
					// failed first; never report it as the root cause.
					errs[i] = fmt.Errorf("machine: rank %d: %w", id, errInterrupted)
				case faultPanic:
					errs[i] = fmt.Errorf("machine: rank %d: %w", id, r.err)
					// Unwind the peers — on the wire backend this rides
					// the abort broadcast to the other processes.
					m.interrupt()
				case timeoutPanic:
					errs[i] = fmt.Errorf("machine: rank %d: recv from rank %d (tag %d): %w after %v",
						id, r.key.src, r.key.tag, ErrRecvTimeout, r.timeout)
					// The run cannot complete without the lost message;
					// unwind the peers too.
					m.interrupt()
				default:
					errs[i] = fmt.Errorf("machine: rank %d panicked: %v\n%s", id, r, debug.Stack())
					// Unblock peers parked at a barrier or in a Recv
					// that this rank will now never satisfy.
					m.interrupt()
				}
			}()
			errs[i] = program(&Rank{m: m, id: id})
		}(i, id)
	}
	wg.Wait()
	m.ctx = context.Background()
	if err := ctx.Err(); err != nil {
		return err
	}
	// A rank interrupted while parked is collateral of another rank's
	// failure (or of cancellation, handled above) — report the root
	// cause, not the interruption.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, errInterrupted) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		// Every local error is collateral interruption: if the transport
		// itself failed (a wire peer died or aborted), that is the root
		// cause worth reporting.
		if f, ok := m.t.(failer); ok {
			if ferr := f.Failure(); ferr != nil {
				return fmt.Errorf("machine: transport failed: %w", ferr)
			}
		}
	}
	return first
}

// errInterrupted marks a rank torn out of a blocking Recv by interrupt;
// it is collateral, never the root cause.
var errInterrupted = errors.New("interrupted while a peer failed or the run was cancelled")

// ErrRecvTimeout marks a receive that outlived the transport's
// SetRecvTimeout deadline — the signature of a lost peer. Match it
// with errors.Is on the error Run returns.
var ErrRecvTimeout = errors.New("receive deadline exceeded")

// interrupt unwinds a run in flight: ranks parked in Recv (or in a
// transport-level barrier wait) are woken with a cancellation panic,
// then barrier waiters are poisoned. The transport wakes first: a rank
// parked in a multi-process BarrierSync sits inside barrier.await and
// still holds the barrier mutex, so poisoning before waking it would
// deadlock.
func (m *Machine) interrupt() {
	m.t.Interrupt()
	m.barrier.poison()
}

// Counters returns rank id's traffic from the last Run.
func (m *Machine) Counters(id int) Counters { return m.t.Counters(id) }

// MultiProcess reports whether the machine's ranks span several OS
// processes, in which case Run executes programs only for LocalRanks.
func (m *Machine) MultiProcess() bool {
	_, ok := m.t.(MultiProcess)
	return ok
}

// LocalRanks returns the ranks this process runs programs for — all of
// them except on a multi-process transport.
func (m *Machine) LocalRanks() []int { return m.local }

// SetRecvTimeout bounds every blocking receive of subsequent Runs: a
// rank parked in Recv or Request.Wait longer than d fails the run with
// ErrRecvTimeout instead of waiting forever on a lost peer. Zero
// disables the bound.
func (m *Machine) SetRecvTimeout(d time.Duration) { m.t.SetRecvTimeout(d) }

// SyncCounters merges per-process traffic counters after a Run on a
// multi-process transport, so rank-0's process reports machine-wide
// volumes. It is a collective — every process must call it after the
// same run — and a no-op on in-process transports.
func (m *Machine) SyncCounters() {
	if cs, ok := m.t.(counterSyncer); ok {
		cs.SyncCounters()
	}
}

// Network returns the machine's α-β-γ parameters and true when it runs
// on a timed transport.
func (m *Machine) Network() (NetworkParams, bool) { return m.t.Network() }

// Times returns a copy of the per-rank logical clocks in seconds after
// the last Run, or nil when the machine is untimed.
func (m *Machine) Times() []float64 {
	live := m.t.Times()
	if live == nil {
		return nil
	}
	times := make([]float64, len(live))
	copy(times, live)
	return times
}

// MaxTime returns the latest per-rank clock — the critical-path runtime
// of the executed schedule on the timed transport (zero when untimed).
func (m *Machine) MaxTime() float64 {
	var max float64
	for _, t := range m.t.Times() {
		if t > max {
			max = t
		}
	}
	return max
}

// Reduce folds f over every rank's Counters from the last Run — the one
// generic per-rank reduction behind all the aggregate statistics.
func Reduce[T any](m *Machine, init T, f func(T, Counters) T) T {
	acc := init
	for id := 0; id < m.P(); id++ {
		acc = f(acc, m.t.Counters(id))
	}
	return acc
}

func maxOver(m *Machine, metric func(Counters) int64) int64 {
	return Reduce(m, 0, func(acc int64, c Counters) int64 {
		if v := metric(c); v > acc {
			return v
		}
		return acc
	})
}

func sumOver(m *Machine, metric func(Counters) int64) int64 {
	return Reduce(m, 0, func(acc int64, c Counters) int64 { return acc + metric(c) })
}

// TotalVolume returns the machine-wide communication volume in words
// (every word counted once at the sender and once at the receiver, then
// halved).
func (m *Machine) TotalVolume() int64 { return sumOver(m, Counters.Volume) / 2 }

// MaxVolume returns the largest per-rank volume in words.
func (m *Machine) MaxVolume() int64 { return maxOver(m, Counters.Volume) }

// AvgRecv returns the mean per-rank received words — the "MB communicated
// per core" metric of Figures 6–7 and Table 4.
func (m *Machine) AvgRecv() float64 {
	return float64(sumOver(m, func(c Counters) int64 { return c.RecvWords })) / float64(m.P())
}

// MaxRecv returns the largest per-rank received word count.
func (m *Machine) MaxRecv() int64 {
	return maxOver(m, func(c Counters) int64 { return c.RecvWords })
}

// MaxMessages returns the largest per-rank message count (sent +
// received), the latency proxy L of §2.3.
func (m *Machine) MaxMessages() int64 { return maxOver(m, Counters.Messages) }

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
	r.checkPeer(dst, "sends to")
	drop, delay, corr := r.faultSend(dst)
	if drop {
		return
	}
	data, owned := corruptPayload(data, false, corr)
	if delay > 0 {
		r.m.t.SendAt(r.id, dst, tag, data, owned, r.Now()+delay)
		return
	}
	r.m.t.Send(r.id, dst, tag, data, owned)
}

// faultSend applies the machine's fault plan (if any) to an outgoing
// message: it reports whether the message must vanish, any logical
// departure delay, and any corruption rule. On the clean path it is a
// single nil check.
func (r *Rank) faultSend(dst int) (drop bool, delay float64, corr *Corrupt) {
	f := r.m.faults
	if f == nil || dst == r.id {
		return false, 0, nil
	}
	return f.send(r.id, dst)
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

// SendOwned delivers data to rank dst with the given tag, transferring
// ownership of the buffer to the transport (and ultimately the
// receiver) without copying. The caller must not touch data afterwards.
func (r *Rank) SendOwned(dst, tag int, data []float64) {
	r.checkPeer(dst, "sends to")
	drop, delay, corr := r.faultSend(dst)
	if drop {
		Release(data)
		return
	}
	data, _ = corruptPayload(data, true, corr)
	if delay > 0 {
		r.m.t.SendAt(r.id, dst, tag, data, true, r.Now()+delay)
		return
	}
	r.m.t.Send(r.id, dst, tag, data, true)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages from the same source with the same tag are
// delivered in send order. Receiving from oneself returns the locally
// sent copy and is not counted. The caller owns the returned buffer and
// may recycle it with Release once the payload is dead.
func (r *Rank) Recv(src, tag int) []float64 {
	r.checkPeer(src, "receives from")
	return r.m.t.Recv(r.id, src, tag)
}

// ISend posts a non-blocking copy-send to dst and returns its Request.
// Both transports buffer eagerly, so the request is complete at post
// time; it exists so pipelined code can treat all its outstanding
// operations uniformly.
func (r *Rank) ISend(dst, tag int, data []float64) Request {
	r.checkPeer(dst, "sends to")
	drop, delay, corr := r.faultSend(dst)
	if drop {
		return completedRequest{at: r.Now()}
	}
	data, owned := corruptPayload(data, false, corr)
	if delay > 0 {
		r.m.t.SendAt(r.id, dst, tag, data, owned, r.Now()+delay)
		return completedRequest{at: r.Now()}
	}
	return r.m.t.ISend(r.id, dst, tag, data, owned)
}

// IRecv posts a non-blocking receive matched on (src, tag) and returns
// its Request; settle it with Wait or Test. On the timed transport the
// transfer is charged to this rank's ingress port concurrently with any
// compute performed before settling — communication is hidden up to the
// compute time (§7.3) — whereas a blocking Recv serializes on the
// rank's clock. The payload buffer is owned by the caller exactly as
// with Recv.
func (r *Rank) IRecv(src, tag int) Request {
	r.checkPeer(src, "receives from")
	return r.m.t.IRecv(r.id, src, tag)
}

// SendAt delivers a copy of data to dst stamped as departing at logical
// time at instead of this rank's current clock — the relay primitive of
// the async tree broadcast, which forwards a payload the moment it
// landed even though the relaying rank's clock has already advanced
// past that moment under overlapped compute. On untimed machines it is
// Send.
func (r *Rank) SendAt(dst, tag int, data []float64, at float64) {
	r.checkPeer(dst, "sends to")
	drop, delay, corr := r.faultSend(dst)
	if drop {
		return
	}
	data, owned := corruptPayload(data, false, corr)
	r.m.t.SendAt(r.id, dst, tag, data, owned, at+delay)
}

// Now returns this rank's current logical clock in seconds on a timed
// machine and zero on a counting one — the landing time an async
// broadcast's root reports for its own payload.
func (r *Rank) Now() float64 {
	if ts := r.m.t.Times(); ts != nil {
		return ts[r.id]
	}
	return 0
}

// Compute registers flops floating-point operations of local work —
// algorithms call it around their kernel invocations so the timed
// transport can charge γ·flops to this rank's clock.
func (r *Rank) Compute(flops int64) {
	r.m.t.Compute(r.id, flops)
	if f := r.m.faults; f != nil {
		f.compute(r.m, r.id, flops)
	}
}

// SendRecv sends sendData to dst and receives from src with the same tag,
// without deadlocking for any pairing pattern (including dst == src ==
// self, which round-trips through the local mailbox).
func (r *Rank) SendRecv(dst int, sendData []float64, src, tag int) []float64 {
	r.Send(dst, tag, sendData)
	return r.Recv(src, tag)
}

// Barrier blocks until every rank of the machine has reached it. On the
// timed transport the barrier max-propagates the logical clocks.
func (r *Rank) Barrier() {
	if f := r.m.faults; f != nil {
		f.barrier(r.id)
	}
	if err := r.m.barrier.await(); err != nil {
		panic(poisonedPanic{})
	}
}

// poisonedPanic unwinds a rank released from a poisoned barrier; like
// interruptedPanic it is collateral of another rank's failure, never
// the root cause.
type poisonedPanic struct{}

func (r *Rank) checkPeer(peer int, verb string) {
	if peer < 0 || peer >= r.m.P() {
		panic(fmt.Sprintf("machine: rank %d %s invalid rank %d", r.id, verb, peer))
	}
}

// barrier is a reusable p-party barrier. poison releases all waiters with
// an error after a rank dies, so Run can terminate. onComplete runs under
// the barrier lock when the last rank arrives (the transport's clock
// propagation hook).
type barrier struct {
	mu         sync.Mutex
	cond       *sync.Cond
	n          int
	waiting    int
	round      int
	poisoned   bool
	onComplete func()
}

func newBarrier(n int, onComplete func()) *barrier {
	b := &barrier{n: n, onComplete: onComplete}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return fmt.Errorf("machine: barrier poisoned by a failed rank")
	}
	round := b.round
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.round++
		if b.onComplete != nil {
			b.onComplete()
		}
		b.cond.Broadcast()
		return nil
	}
	for b.round == round && !b.poisoned {
		b.cond.Wait()
	}
	if b.poisoned {
		return fmt.Errorf("machine: barrier poisoned by a failed rank")
	}
	return nil
}

func (b *barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// reset clears poisoning between Runs; Run guarantees no rank is parked
// in the barrier when it calls this.
func (b *barrier) reset() {
	b.mu.Lock()
	b.poisoned = false
	b.waiting = 0
	b.mu.Unlock()
}
