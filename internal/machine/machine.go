package machine

import (
	"context"
	"errors"
	"fmt"
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
// (sent + received).
func (c Counters) Volume() int64 { return c.SentWords + c.RecvWords }

// Messages returns the rank's total message count (sent + received),
// the latency proxy L of §2.3.
func (c Counters) Messages() int64 { return c.SentMsgs + c.RecvMsgs }

// Link is what a machine needs from a connection mesh when its p ranks
// span several OS processes (internal/machine/wire): every process runs
// its own Machine over its own slice of the same logical machine, and
// the link carries what cannot stay in-process — messages to ranks
// hosted elsewhere, the run boundaries, the abort broadcast and the
// counter merge. Matching, counting, deadlines and fault injection stay
// in the Machine, so they are the same code on every backend. It is an
// interface only because wire imports machine and not the reverse.
type Link interface {
	// Ranks returns the machine size p and the ranks this process hosts.
	Ranks() (p int, local []int)
	// Bind is called once, by NewLinked: deliver posts an inbound
	// message that counts words into local rank dst's mailbox (taking
	// ownership of data), and interrupt unwinds the local run when a
	// peer aborts or a connection drops.
	Bind(deliver func(dst, src, tag int, data []float64, words int), interrupt func())
	// Begin starts a run, in lockstep on every process: it calls reset
	// (which empties the local mailboxes) and then delivers any message
	// of this run that arrived before it, atomically with respect to
	// inbound traffic. A non-nil error means the run cannot complete — a
	// connection already died, or a peer already aborted this run.
	Begin(reset func()) error
	// Forward ships a message that counts words to dst, a rank hosted
	// by another process, taking ownership of data. It never blocks on
	// the receiver.
	Forward(src, dst, tag int, data []float64, words int)
	// Abort tells every peer process to unwind the run in flight; calls
	// after the first of a run do nothing.
	Abort()
	// Failure returns why the link interrupted the run (a lost
	// connection, a peer's abort), or nil.
	Failure() error
	// MergeCounters is the post-run collective that fills in, on the
	// process hosting rank 0, the counters of the ranks hosted elsewhere;
	// the other processes send theirs. wait bounds the coordinator's
	// wait; a payload that did not arrive in time is an error.
	MergeCounters(count []Counters, wait time.Duration) error
}

// Machine is a simulated distributed machine of p ranks: per-rank keyed
// mailboxes and traffic counters, plus an optional event clock
// (NewTimed) and an optional link to peer processes (NewLinked).
type Machine struct {
	// office[i] is rank i's mailboxes (nil for ranks hosted elsewhere);
	// count[i] its counters, mutated only by rank i's own goroutine.
	office []*postOffice
	count  []Counters
	// recvTimeout bounds blocking takes; zero disables. Written by
	// SetRecvTimeout between Runs, read by rank goroutines.
	recvTimeout time.Duration
	// clock is nil unless the machine is timed, link nil unless its ranks
	// span processes: each costs the paths below one nil check.
	clock *clock
	link  Link
	// local is the subset of ranks this process runs programs for —
	// all p of them except on a linked machine.
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

// New returns a machine with p ranks that counts traffic and nothing
// else.
func New(p int) *Machine { return newMachine(p, nil) }

// NewTimed returns a machine with p ranks that additionally runs the
// α-β-γ event clock of net.
func NewTimed(p int, net NetworkParams) *Machine {
	m := New(p)
	m.clock = newClock(p, net)
	return m
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

// NewLinked returns this process's share of a machine whose ranks span
// several OS processes: it runs programs only for the ranks l hosts,
// forwards messages for the others over l, and is interrupted by l when
// a peer aborts.
func NewLinked(l Link) *Machine {
	p, local := l.Ranks()
	if len(local) < 1 {
		panic("machine: link hosts no local ranks")
	}
	m := newMachine(p, local)
	m.link = l
	l.Bind(m.deliver, m.interrupt)
	return m
}

// newMachine builds the mailboxes and counters; a nil local hosts all p
// ranks.
func newMachine(p int, local []int) *Machine {
	checkP(p)
	if local == nil {
		local = make([]int, p)
		for i := range local {
			local[i] = i
		}
	}
	m := &Machine{
		office: make([]*postOffice, p),
		count:  make([]Counters, p),
		local:  local,
		ctx:    context.Background(),
	}
	for _, id := range local {
		m.office[id] = newPostOffice()
	}
	return m
}

func checkP(p int) {
	if p < 1 {
		panic(fmt.Sprintf("machine: p = %d must be ≥ 1", p))
	}
}

// P returns the number of ranks.
func (m *Machine) P() int { return len(m.count) }

// Run executes program on every rank concurrently and waits for all of
// them. A panic in any rank is recovered and reported as an error; the
// first error (by rank order) is returned. Counters, clocks and
// mailboxes reset at the start of each Run.
func (m *Machine) Run(program func(r *Rank) error) error {
	return m.RunCtx(context.Background(), program)
}

// RunCtx is Run under a context. When ctx is cancelled mid-run every
// rank blocked in Recv is woken, so the whole machine unwinds promptly
// and RunCtx returns ctx.Err(); rank programs additionally poll
// Rank.Err at their communication-round boundaries so compute-bound
// ranks notice too. The machine remains reusable afterwards — the next
// Run resets the mailboxes.
func (m *Machine) RunCtx(ctx context.Context, program func(r *Rank) error) error {
	m.reset()
	m.ctx = ctx
	// The cancellation callback must not outlive this Run: a pooled
	// machine is reused (and reset) the moment RunCtx returns, and a
	// straggling interrupt would sabotage the next run. stop() does not
	// wait for an in-flight callback, so the callback signals completion
	// and RunCtx waits for it when it already fired.
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
				case faultPanic:
					errs[i] = fmt.Errorf("machine: rank %d: %w", id, r.err)
					// Unwind the peers — on a linked machine this rides
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
					// Unblock peers parked in a Recv that this rank will
					// now never satisfy.
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
	if first != nil && m.link != nil {
		// Every local error is collateral interruption: if the link
		// itself failed (a peer process died or aborted), that is the
		// root cause worth reporting.
		if err := m.link.Failure(); err != nil {
			return fmt.Errorf("machine: link failed: %w", err)
		}
	}
	return first
}

// reset re-arms the machine for a Run. Besides the counters and the
// clock it drains every mailbox and clears interruption: a previous Run
// that failed or was cancelled mid-schedule may have left undelivered
// envelopes behind, which must not leak into the next one. The
// mailboxes themselves (and their condition variables) are retained, so
// a reused machine's round loop allocates nothing for delivery at
// steady state. On a linked machine the mailboxes clear inside the
// link's Begin, atomically with its run boundary, and a link that is
// already down leaves them closed so the run fails fast instead of
// hanging.
func (m *Machine) reset() {
	for i := range m.count {
		m.count[i] = Counters{}
	}
	if m.clock != nil {
		m.clock.reset()
	}
	if m.faults != nil {
		m.faults.reset()
	}
	if m.link == nil {
		m.resetMailboxes()
	} else if m.link.Begin(m.resetMailboxes) != nil {
		m.interrupt()
	}
}

func (m *Machine) resetMailboxes() {
	for _, id := range m.local {
		m.office[id].reset()
	}
}

// deliver posts a message that arrived over the link into local rank
// dst's mailbox, the receiver's own buffer; the receiver counts its
// words when it takes it.
func (m *Machine) deliver(dst, src, tag int, data []float64, words int) {
	m.office[dst].post(mailKey{src: src, tag: tag}, envelope{data: data, words: words})
}

// errInterrupted marks a rank torn out of a blocking Recv by interrupt;
// it is collateral, never the root cause.
var errInterrupted = errors.New("interrupted while a peer failed or the run was cancelled")

// ErrRecvTimeout marks a receive that outlived the machine's
// SetRecvTimeout deadline — the signature of a lost peer. Match it
// with errors.Is on the error Run returns.
var ErrRecvTimeout = errors.New("receive deadline exceeded")

// interrupt unwinds a run in flight: every local mailbox is closed, so
// ranks parked in Recv (and ranks that would park later) drain what has
// arrived and then unwind with a cancellation panic, and on a linked
// machine the peer processes are told to do the same.
func (m *Machine) interrupt() {
	for _, id := range m.local {
		m.office[id].interrupt()
	}
	if m.link != nil {
		m.link.Abort()
	}
}

// Counters returns rank id's traffic from the last Run.
func (m *Machine) Counters(id int) Counters { return m.count[id] }

// MultiProcess reports whether the machine's ranks span several OS
// processes, in which case Run executes programs only for LocalRanks.
func (m *Machine) MultiProcess() bool { return m.link != nil }

// LocalRanks returns the ranks this process runs programs for — all of
// them except on a linked machine.
func (m *Machine) LocalRanks() []int { return m.local }

// SetRecvTimeout bounds every blocking receive of subsequent Runs: a
// rank parked in Recv or Request.Wait longer than d fails the run with
// ErrRecvTimeout instead of waiting forever on a lost peer. Zero
// disables the bound.
func (m *Machine) SetRecvTimeout(d time.Duration) { m.recvTimeout = d }

// SyncCounters merges per-process traffic counters after a Run on a
// linked machine, so rank 0's process reports machine-wide volumes. It
// is a collective — every process must call it after the same run — and
// a no-op on in-process machines. An error means a peer's counters did
// not arrive: the aggregates would under-report, so callers must not
// use them.
func (m *Machine) SyncCounters() error {
	if m.link == nil {
		return nil
	}
	return m.link.MergeCounters(m.count, m.recvTimeout)
}

// Network returns the machine's α-β-γ parameters and true when it is
// timed.
func (m *Machine) Network() (NetworkParams, bool) {
	if m.clock == nil {
		return NetworkParams{}, false
	}
	return m.clock.net, true
}

// Times returns a copy of the per-rank logical clocks in seconds after
// the last Run, or nil when the machine is untimed.
func (m *Machine) Times() []float64 {
	if m.clock == nil {
		return nil
	}
	return append([]float64(nil), m.clock.now...)
}

// MaxTime returns the latest per-rank clock — the critical-path runtime
// of the executed schedule on a timed machine (zero when untimed).
func (m *Machine) MaxTime() float64 {
	var max float64
	if m.clock != nil {
		for _, t := range m.clock.now {
			if t > max {
				max = t
			}
		}
	}
	return max
}

// Reduce folds f over every rank's Counters from the last Run — the one
// generic per-rank reduction behind all the aggregate statistics.
func Reduce[T any](m *Machine, init T, f func(T, Counters) T) T {
	acc := init
	for id := 0; id < m.P(); id++ {
		acc = f(acc, m.count[id])
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
