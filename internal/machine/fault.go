package machine

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// FaultPlan is a deterministic chaos schedule injected at the Rank
// layer, so one plan perturbs a run identically on every machine,
// whatever clock or link it carries: rank deaths fire entering a
// Compute, message drops, corruptions and delays fire in the one send
// path, and slow ranks stretch their Compute calls. Every failure class
// surfaces as a prompt error from Run — a dead rank interrupts the
// machine (on a linked machine that rides the abort broadcast, so peer
// processes unwind too), and a dropped or over-delayed message trips
// the SetRecvTimeout deadline at the receiver. Set a deadline when
// injecting drops or delays on machines that are not otherwise
// cancelled: a lost message is, by design, indistinguishable from a
// lost peer.
//
// The zero value injects nothing, and an empty plan leaves the machine
// on the exact code path it had before SetFaultPlan was called —
// clean runs stay bitwise-identical.
type FaultPlan struct {
	Deaths   []RankDeath
	Drops    []MessageDrop
	Delays   []MessageDelay
	Slow     []SlowRank
	Corrupts []Corrupt
}

// RankDeath kills Rank inside its communication round Round (0-based,
// counted per rank within one Run). Compute is the round clock — every
// registered rank program charges one Compute per round — so the rank
// completes Round of them and dies entering the next: it has received
// round Round's panels and never multiplies them. A rank that computes
// Round times or fewer survives, whatever it sends afterwards (the
// fiber reduction and the result gather follow the last round). The
// rank panics, the run is interrupted, and Run reports an error
// wrapping ErrFaultInjected.
//
// OnAttempt restricts the death to the OnAttempt-th Run since the plan
// was installed (1-based); 0 fires on every Run. A retry layer uses
// OnAttempt to script "die once, then recover".
type RankDeath struct {
	Rank      int
	Round     int
	OnAttempt int
}

// MessageDrop silently discards messages from Src to Dst after the
// first After have been delivered (After 0 drops them all). Src or
// Dst may be -1 to match any rank; the most specific matching rule
// wins. Self-sends are never dropped. OnAttempt restricts the rule to
// one Run, as on RankDeath.
type MessageDrop struct {
	Src, Dst  int
	After     int
	OnAttempt int
}

// Corrupt silently flips payload bits in flight: once After messages
// from Src to Dst have been sent, every later matching payload has word
// Word (modulo the payload length) perturbed — multiplied by Scale, or,
// with Scale 0, its exponent bit 62 flipped, the classic silent
// data-corruption model. The message still arrives, counters still
// count it, and nothing fails: only an end-to-end integrity check (the
// engine's ABFT checksums) can see it. Src or Dst may be -1 to match
// any rank; self-sends are never corrupted; corruption is applied to a
// private copy, never to the sender's buffer. OnAttempt restricts the
// rule to one Run, as on RankDeath.
type Corrupt struct {
	Src, Dst  int
	After     int
	Word      int
	Scale     float64
	OnAttempt int
}

// MessageDelay slows the Src→Dst link: Seconds delays the logical
// departure stamp on the timed transport (a pure model perturbation),
// and Wall stalls the sending goroutine for real on any transport —
// long enough a Wall delay trips the receiver's ErrRecvTimeout
// deadline. Src or Dst may be -1 to match any rank.
type MessageDelay struct {
	Src, Dst int
	Seconds  float64
	Wall     time.Duration
}

// SlowRank skews one rank's compute: Factor ≥ 1 multiplies the γ
// charge on the timed transport's clock (a straggler in the model),
// and PerCompute stalls each Compute call for real on any transport.
type SlowRank struct {
	Rank       int
	Factor     float64
	PerCompute time.Duration
}

// ErrFaultInjected marks a run killed by an injected RankDeath. Match
// it with errors.Is on the error Run returns.
var ErrFaultInjected = errors.New("injected fault")

// Empty reports whether the plan injects nothing.
func (fp FaultPlan) Empty() bool {
	return len(fp.Deaths) == 0 && len(fp.Drops) == 0 && len(fp.Delays) == 0 &&
		len(fp.Slow) == 0 && len(fp.Corrupts) == 0
}

// Validate checks every rank reference against machine size p.
func (fp FaultPlan) Validate(p int) error {
	check := func(what string, rank int, wild bool) error {
		if wild && rank == -1 {
			return nil
		}
		if rank < 0 || rank >= p {
			return fmt.Errorf("machine: fault plan: %s rank %d outside [0, %d)", what, rank, p)
		}
		return nil
	}
	for _, d := range fp.Deaths {
		if err := check("death", d.Rank, false); err != nil {
			return err
		}
		if d.Round < 0 {
			return fmt.Errorf("machine: fault plan: death round %d < 0", d.Round)
		}
		if d.OnAttempt < 0 {
			return fmt.Errorf("machine: fault plan: death attempt %d < 0", d.OnAttempt)
		}
	}
	for _, d := range fp.Drops {
		if err := check("drop src", d.Src, true); err != nil {
			return err
		}
		if err := check("drop dst", d.Dst, true); err != nil {
			return err
		}
		if d.After < 0 {
			return fmt.Errorf("machine: fault plan: drop after %d < 0", d.After)
		}
		if d.OnAttempt < 0 {
			return fmt.Errorf("machine: fault plan: drop attempt %d < 0", d.OnAttempt)
		}
	}
	for _, c := range fp.Corrupts {
		if err := check("corrupt src", c.Src, true); err != nil {
			return err
		}
		if err := check("corrupt dst", c.Dst, true); err != nil {
			return err
		}
		if c.After < 0 || c.Word < 0 || c.OnAttempt < 0 {
			return fmt.Errorf("machine: fault plan: negative corrupt field")
		}
	}
	for _, d := range fp.Delays {
		if err := check("delay src", d.Src, true); err != nil {
			return err
		}
		if err := check("delay dst", d.Dst, true); err != nil {
			return err
		}
		if d.Seconds < 0 || d.Wall < 0 {
			return fmt.Errorf("machine: fault plan: negative delay")
		}
	}
	for _, s := range fp.Slow {
		if err := check("slow", s.Rank, false); err != nil {
			return err
		}
		if s.Factor != 0 && s.Factor < 1 {
			return fmt.Errorf("machine: fault plan: slow factor %v must be ≥ 1 (or 0 for unset)", s.Factor)
		}
		if s.PerCompute < 0 {
			return fmt.Errorf("machine: fault plan: negative per-compute stall")
		}
	}
	return nil
}

// faultPanic unwinds a rank killed by an injected death; RunCtx
// reports it as the run's root cause.
type faultPanic struct {
	err error
}

// faultState is a FaultPlan compiled per rank. The mutable fields of
// each rankFaults entry are touched only by that rank's own program
// goroutine, so no locking is needed; reset runs between Runs with no
// rank goroutines alive.
type faultState struct {
	ranks []rankFaults
	// run counts Runs since the plan was installed (1 during the first
	// Run): the clock OnAttempt-gated rules fire against. Written only by
	// reset between Runs, read by the rank goroutines.
	run int
}

type rankFaults struct {
	death    *RankDeath
	slow     *SlowRank
	drops    []MessageDrop  // rules applying to this sender, most specific first
	delays   []MessageDelay // likewise
	corrupts []Corrupt      // likewise
	// Mutable per-run state, owned by the rank's goroutine:
	computes int   // completed Compute calls: the round the rank is in
	sent     []int // per-destination send attempts (nil unless drops or corrupts exist)
}

func compileFaults(fp FaultPlan, p int) *faultState {
	// Specificity order: exact src+dst, then one wildcard, then two;
	// ties keep plan order (stable sort).
	spec := func(src, dst int) int {
		n := 0
		if src == -1 {
			n += 2
		}
		if dst == -1 {
			n++
		}
		return n
	}
	f := &faultState{ranks: make([]rankFaults, p)}
	for r := 0; r < p; r++ {
		rf := &f.ranks[r]
		for i := range fp.Deaths {
			if fp.Deaths[i].Rank == r {
				rf.death = &fp.Deaths[i]
				break
			}
		}
		for i := range fp.Slow {
			if fp.Slow[i].Rank == r {
				rf.slow = &fp.Slow[i]
				break
			}
		}
		for _, d := range fp.Drops {
			if d.Src == r || d.Src == -1 {
				rf.drops = append(rf.drops, d)
			}
		}
		sort.SliceStable(rf.drops, func(i, j int) bool {
			return spec(rf.drops[i].Src, rf.drops[i].Dst) < spec(rf.drops[j].Src, rf.drops[j].Dst)
		})
		for _, d := range fp.Delays {
			if d.Src == r || d.Src == -1 {
				rf.delays = append(rf.delays, d)
			}
		}
		sort.SliceStable(rf.delays, func(i, j int) bool {
			return spec(rf.delays[i].Src, rf.delays[i].Dst) < spec(rf.delays[j].Src, rf.delays[j].Dst)
		})
		for _, c := range fp.Corrupts {
			if c.Src == r || c.Src == -1 {
				rf.corrupts = append(rf.corrupts, c)
			}
		}
		sort.SliceStable(rf.corrupts, func(i, j int) bool {
			return spec(rf.corrupts[i].Src, rf.corrupts[i].Dst) < spec(rf.corrupts[j].Src, rf.corrupts[j].Dst)
		})
		if len(rf.drops) > 0 || len(rf.corrupts) > 0 {
			rf.sent = make([]int, p)
		}
	}
	return f
}

// reset clears the per-run counters and advances the attempt clock;
// called from RunCtx before the rank goroutines start.
func (f *faultState) reset() {
	f.run++
	for i := range f.ranks {
		f.ranks[i].computes = 0
		for j := range f.ranks[i].sent {
			f.ranks[i].sent[j] = 0
		}
	}
}

// send applies the plan to an outgoing message from rank to dst: it
// stalls the sender for any wall-clock delay, and reports whether the
// message is dropped, any logical departure delay in seconds, and any
// corruption rule to apply to the payload. Rules gated to another
// attempt are skipped, so a less specific always-on rule can still
// match. A dropped message is never also corrupted.
func (f *faultState) send(rank, dst int) (drop bool, logical float64, corr *Corrupt) {
	rf := &f.ranks[rank]
	n := 0
	if rf.sent != nil {
		n = rf.sent[dst]
		rf.sent[dst] = n + 1
	}
	for i := range rf.drops {
		if d := &rf.drops[i]; d.Dst == dst || d.Dst == -1 {
			if d.OnAttempt != 0 && d.OnAttempt != f.run {
				continue
			}
			if n >= d.After {
				return true, 0, nil
			}
			break
		}
	}
	for i := range rf.corrupts {
		if c := &rf.corrupts[i]; c.Dst == dst || c.Dst == -1 {
			if c.OnAttempt != 0 && c.OnAttempt != f.run {
				continue
			}
			if n >= c.After {
				corr = c
			}
			break
		}
	}
	for i := range rf.delays {
		if d := &rf.delays[i]; d.Dst == dst || d.Dst == -1 {
			if d.Wall > 0 {
				time.Sleep(d.Wall)
			}
			logical = d.Seconds
			break
		}
	}
	return false, logical, corr
}

// round is the plan's hook in Rank.Compute, called after the charge: a
// death scheduled for the round this Compute closes fires, the round
// count advances, and a straggler's PerCompute stall is taken.
func (f *faultState) round(rank int) {
	rf := &f.ranks[rank]
	if d := rf.death; d != nil && rf.computes == d.Round && (d.OnAttempt == 0 || d.OnAttempt == f.run) {
		panic(faultPanic{fmt.Errorf("%w: rank %d died in round %d (attempt %d)",
			ErrFaultInjected, rank, d.Round, f.run)})
	}
	rf.computes++
	if s := rf.slow; s != nil && s.PerCompute > 0 {
		time.Sleep(s.PerCompute)
	}
}

// skew is the plan's hook in Rank.Charge: on a timed machine (c
// non-nil) a straggler's Factor stretches the rank's clock by the extra
// seconds its flops take.
func (f *faultState) skew(c *clock, rank int, flops int64) {
	if s := f.ranks[rank].slow; s != nil && s.Factor > 1 && c != nil {
		c.skew(rank, (s.Factor-1)*c.net.Gamma*float64(flops))
	}
}

// SetFaultPlan installs (or, with an empty plan, removes) a fault
// plan for subsequent Runs. With no plan installed every fast path is
// a single nil check, so clean runs are untouched.
func (m *Machine) SetFaultPlan(fp FaultPlan) error {
	if fp.Empty() {
		m.faults = nil
		return nil
	}
	if err := fp.Validate(m.P()); err != nil {
		return err
	}
	m.faults = compileFaults(fp, m.P())
	return nil
}
