package machine

import (
	"fmt"
	"math"
	"strings"
)

// NetworkParams are the constants of the α-β-γ machine model: a message
// costs α seconds of latency, every word (8-byte float64) β seconds of
// bandwidth, and every floating-point operation γ seconds of compute.
// This is the cost surface of §2.3 (Q·G + L·L̂) with G = β and L̂ = α,
// extended with compute so whole-algorithm runtimes can be predicted.
type NetworkParams struct {
	Name  string  // preset name, for reports
	Alpha float64 // seconds per message (latency)
	Beta  float64 // seconds per word (inverse bandwidth)
	Gamma float64 // seconds per flop (inverse peak rate)

	// Hierarchical extension (see Hierarchical). All fields are scalar
	// so NetworkParams stays a comparable, copyable value. Zero values
	// mean a flat single-level network with exactly the cost surface
	// above.
	RanksPerNode int     // >0: ranks r, q share a node iff r/RanksPerNode == q/RanksPerNode
	IntraAlpha   float64 // seconds per message on a same-node link
	IntraBeta    float64 // seconds per word on a same-node link
	Congestion   float64 // inter-node β multiplier (≤0 means 1)
}

// Time is the analytic evaluation of the model: the runtime of a rank
// that computes flops, receives words and exchanges msgs messages with
// no overlap. A hierarchical network charges the inter-node link
// (α, congested β) — the analytic form has no per-message routing, so
// it conservatively prices every word at the slowest level; the timed
// transport, which knows src and dst, prices each link exactly.
func (n NetworkParams) Time(flops, words, msgs float64) float64 {
	return n.Gamma*flops + n.interBeta()*words + n.Alpha*msgs
}

// TimeOverlap is the analytic evaluation with full communication–
// computation overlap (§7.3): the compute and communication phases hide
// each other, so the runtime is their maximum instead of their sum.
func (n NetworkParams) TimeOverlap(flops, words, msgs float64) float64 {
	compute := n.Gamma * flops
	comms := n.interBeta()*words + n.Alpha*msgs
	return math.Max(compute, comms)
}

// WithGamma returns a copy of the network with the compute constant γ
// replaced — the hook matrix.Calibrate's measured seconds-per-flop is
// fed through so predictions charge compute at the rate the local
// kernel actually achieves instead of an assumed peak. The copy is
// tagged "+cal" so reports show which γ they were computed under.
func (n NetworkParams) WithGamma(gamma float64) NetworkParams {
	if gamma <= 0 {
		panic(fmt.Sprintf("machine: WithGamma(%v) must be > 0", gamma))
	}
	n.Gamma = gamma
	if !strings.HasSuffix(n.Name, "+cal") {
		n.Name += "+cal"
	}
	return n
}

// PizDaintNet returns Piz-Daint-like constants (§8's testbed): 1.5 µs
// Aries latency, 0.29 GB/s sustained per-core injection bandwidth
// (10.5 GB/s per node / 36 cores ≈ 3.6e7 words/s) and 36.8 Gflop/s per
// core. The figure-level tables (internal/perfmodel) and the timed
// transport both price with this one definition.
func PizDaintNet() NetworkParams {
	return NetworkParams{
		Name:  "pizdaint",
		Alpha: 1.5e-6,
		Beta:  1 / 3.6e7,
		Gamma: 1 / 36.8e9,
	}
}

// CommodityEthernet returns a 10 GbE commodity-cluster profile: 30 µs
// kernel-stack latency, 1.25 GB/s line rate (≈ 1.56e8 words/s) shared
// per node, and a 20 Gflop/s core. Latency-heavy: it punishes
// message-count-heavy schedules hardest.
func CommodityEthernet() NetworkParams {
	return NetworkParams{
		Name:  "ethernet",
		Alpha: 30e-6,
		Beta:  1 / 1.5625e8,
		Gamma: 1 / 20e9,
	}
}

// SharedMemory returns an intra-node profile: ~200 ns handoff, 10 GB/s
// per-core copy bandwidth (1.25e9 words/s) and a 36.8 Gflop/s core.
// Bandwidth and latency nearly vanish against compute, so schedules are
// separated almost purely by their flop balance.
func SharedMemory() NetworkParams {
	return NetworkParams{
		Name:  "sharedmem",
		Alpha: 2e-7,
		Beta:  1 / 1.25e9,
		Gamma: 1 / 36.8e9,
	}
}

// NetworkByName resolves a preset name ("pizdaint", "ethernet",
// "sharedmem") for command-line flags.
func NetworkByName(name string) (NetworkParams, error) {
	switch name {
	case "pizdaint":
		return PizDaintNet(), nil
	case "ethernet":
		return CommodityEthernet(), nil
	case "sharedmem":
		return SharedMemory(), nil
	}
	return NetworkParams{}, fmt.Errorf("machine: unknown network %q (want pizdaint, ethernet or sharedmem)", name)
}

// timed is the event-clock transport: counting's delivery and
// accounting, plus a per-rank logical clock advanced by sends, receives
// and compute. The model is congestion-free in the network core:
//
//   - a send occupies the sender's injection port for α seconds and the
//     message departs at the sender's new clock;
//   - a receive serializes on the receiver's ingress port: the receiver
//     advances to max(own clock, departure) + β·words;
//   - compute advances the rank's clock by γ·flops;
//   - a machine barrier max-propagates all clocks (every rank leaves at
//     the latest arrival).
//
// Dependencies therefore chain exactly along messages, so the final
// maximum clock is the critical-path runtime of the executed schedule —
// tree collectives pay their depth in α and β without any collective-
// aware bookkeeping.
//
// Non-blocking receives additionally model overlap (§7.3): each rank
// owns an ingress port whose free time advances independently of the
// rank's compute clock. A posted IRecv's β·words transfer occupies the
// port from the moment the message is available (and the port free),
// concurrently with whatever the rank computes before settling the
// request; Wait only drags the compute clock forward if the transfer
// outlives the compute. Blocking Recv keeps the serial semantics above
// — so one schedule executed both ways measures exactly the Figure 12
// overlap gain on its critical path.
type timed struct {
	*counting
	net   NetworkParams
	clock []float64
	// ingress[i] is the time rank i's ingress port is next free. Only
	// rank i's own goroutine touches it (transfers are accounted when
	// that rank settles the receive), so it needs no lock.
	ingress []float64
	// egress[i] is the time rank i's injection port last released a
	// departure. Relayed sends (SendAt) serialize against it, so a node
	// forwarding to several children charges each child one more α —
	// exactly the blocking collective's per-child injection sequence.
	// Touched only by rank i's own goroutine, like ingress.
	egress []float64
}

func newTimed(p int, net NetworkParams) *timed {
	return &timed{
		counting: newCounting(p),
		net:      net,
		clock:    make([]float64, p),
		ingress:  make([]float64, p),
		egress:   make([]float64, p),
	}
}

// Send implements Transport: the sender pays α and the message departs
// at the sender's advanced clock. Self-sends are free, mirroring the
// counting transport's accounting.
func (t *timed) Send(src, dst, tag int, data []float64, owned bool) {
	if src != dst {
		t.clock[src] += t.net.LinkAlpha(src, dst)
		if t.clock[src] > t.egress[src] {
			t.egress[src] = t.clock[src]
		}
	}
	t.post(src, dst, tag, data, owned, t.clock[src])
}

// SendAt implements Transport: the relay departs at the stamped time
// (the moment the payload landed at the relaying rank) plus α, not at
// the rank's compute-advanced clock — this is what keeps a pipelined
// tree collective's downstream hops overlapped with the upstream ranks'
// compute. Departures still serialize on the injection port: a node
// relaying to several children charges each successive child one more
// α, matching the blocking collective's send sequence. Posting also
// costs the sender α of clock time.
func (t *timed) SendAt(src, dst, tag int, data []float64, owned bool, at float64) {
	if src == dst {
		t.post(src, dst, tag, data, owned, t.clock[src])
		return
	}
	alpha := t.net.LinkAlpha(src, dst)
	t.clock[src] += alpha
	if t.egress[src] > at {
		at = t.egress[src]
	}
	dep := at + alpha
	t.egress[src] = dep
	t.post(src, dst, tag, data, owned, dep)
}

// Recv implements Transport: the receiver waits for the message's
// departure time, then pays β per word on its ingress port, serially on
// its own clock — a blocking receive is a receive posted and settled at
// the same instant, so no part of the transfer can hide behind compute
// (the no-overlap path). Equivalent to IRecv immediately followed by
// Wait.
func (t *timed) Recv(dst, src, tag int) []float64 {
	e := t.take(dst, src, tag)
	t.land(dst, src, e, t.clock[dst])
	return e.data
}

// ISend implements Transport: identical cost to Send (eager buffering
// completes the operation at post time).
func (t *timed) ISend(src, dst, tag int, data []float64, owned bool) Request {
	t.Send(src, dst, tag, data, owned)
	return completedRequest{at: t.clock[src]}
}

// IRecv implements Transport: the transfer is accounted on the
// receiver's ingress port when the request settles, and cannot have
// started before the post time recorded here — so a receive posted
// early overlaps subsequent compute, while one posted and settled
// back-to-back degenerates to exactly the blocking Recv cost.
func (t *timed) IRecv(dst, src, tag int) Request {
	return &timedRecv{t: t, dst: dst, src: src, tag: tag, post: t.clock[dst]}
}

// land accounts a settled non-blocking receive: the β·words transfer
// occupied the ingress port from max(port free, message departure,
// request post time) — independent of the compute clock after the post
// — and the clock only advances if the transfer finished after it. It
// returns the transfer completion time, the stamp relays carry onward.
func (t *timed) land(dst, src int, e envelope, post float64) float64 {
	if src == dst {
		return t.clock[dst]
	}
	start := t.ingress[dst]
	if e.at > start {
		start = e.at
	}
	if post > start {
		start = post
	}
	done := start + t.net.LinkBeta(src, dst)*float64(len(e.data))
	t.ingress[dst] = done
	if done > t.clock[dst] {
		t.clock[dst] = done
	}
	return done
}

// Compute implements Transport.
func (t *timed) Compute(rank int, flops int64) {
	t.counting.Compute(rank, flops)
	t.clock[rank] += t.net.Gamma * float64(flops)
}

// BarrierSync implements Transport: congestion-free max-propagation —
// every rank leaves the barrier at the latest arrival time. The machine
// calls it with every rank parked, so the clocks are quiescent.
func (t *timed) BarrierSync() {
	var max float64
	for _, c := range t.clock {
		if c > max {
			max = c
		}
	}
	for i := range t.clock {
		t.clock[i] = max
		// An idle port is free from the barrier time on; a port still
		// busy with an unsettled transfer keeps its later time.
		if t.ingress[i] < max {
			t.ingress[i] = max
		}
		if t.egress[i] < max {
			t.egress[i] = max
		}
	}
}

// SkewClock implements clockSkewer: an injected straggler (SlowRank)
// stretches this rank's logical clock by extra seconds of compute.
// Called only from the rank's own program goroutine, like Compute.
func (t *timed) SkewClock(rank int, seconds float64) {
	t.clock[rank] += seconds
}

// Reset implements Transport.
func (t *timed) Reset() {
	t.counting.Reset()
	for i := range t.clock {
		t.clock[i] = 0
		t.ingress[i] = 0
		t.egress[i] = 0
	}
}

// Network implements Transport.
func (t *timed) Network() (NetworkParams, bool) { return t.net, true }

// Times implements Transport.
func (t *timed) Times() []float64 { return t.clock }
