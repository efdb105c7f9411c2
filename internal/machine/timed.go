package machine

import (
	"fmt"
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
}

// Time is the analytic evaluation of the model: the runtime of a rank
// that computes flops, receives words and exchanges msgs messages with
// no overlap.
func (n NetworkParams) Time(flops, words, msgs float64) float64 {
	return n.Gamma*flops + n.Beta*words + n.Alpha*msgs
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
// core. The figure-level tables (internal/experiments) and the timed
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

// clock is the α-β-γ event clock a timed machine (NewTimed) carries
// beside its mailboxes: one logical clock per rank, advanced by that
// rank's sends, receives and compute. Delivery and accounting are the
// machine's; the clock only prices them. The model is congestion-free
// in the network core:
//
//   - a send occupies the sender's injection port for α seconds and the
//     message departs at the sender's new clock;
//   - a receive serializes on the receiver's ingress port: the receiver
//     advances to max(own clock, departure) + β·words;
//   - compute advances the rank's clock by γ·flops.
//
// Dependencies therefore chain exactly along messages, so the final
// maximum clock is the critical-path runtime of the executed schedule —
// tree collectives pay their depth in α and β without any collective-
// aware bookkeeping.
//
// Non-blocking receives additionally model overlap (§7.3): each rank
// owns an ingress port whose free time advances independently of the
// rank's compute clock. A posted receive's β·words transfer occupies the
// port from the moment the message is available (and the port free),
// concurrently with whatever the rank computes before settling the
// request; Wait only drags the compute clock forward if the transfer
// outlives the compute. Blocking Recv keeps the serial semantics above
// — so one schedule executed both ways measures exactly the Figure 12
// overlap gain on its critical path.
//
// Every entry of every slice is touched only by its rank's own program
// goroutine, so the clock needs no lock.
type clock struct {
	net NetworkParams
	now []float64
	// ingress[i] is the time rank i's ingress port is next free;
	// transfers are accounted when that rank settles the receive.
	ingress []float64
	// egress[i] is the time rank i's injection port last released a
	// departure. Relayed sends (SendAt) serialize against it, so a node
	// forwarding to several children charges each child one more α —
	// exactly the blocking collective's per-child injection sequence.
	egress []float64
}

func newClock(p int, net NetworkParams) *clock {
	return &clock{
		net:     net,
		now:     make([]float64, p),
		ingress: make([]float64, p),
		egress:  make([]float64, p),
	}
}

// depart charges a send from src to dst and returns the message's
// departure time. Posting costs the sender α of clock time either way;
// self-sends are free, mirroring the accounting. A plain send departs
// at the sender's advanced clock. A relay departs at the stamped time
// at (the moment the payload landed at the relaying rank) plus α, not
// at the rank's compute-advanced clock — this is what keeps a pipelined
// tree collective's downstream hops overlapped with the upstream ranks'
// compute — but still serializes on the injection port: a node relaying
// to several children charges each successive child one more α,
// matching the blocking collective's send sequence.
func (c *clock) depart(src, dst int, relay bool, at float64) float64 {
	if src == dst {
		return c.now[src]
	}
	alpha := c.net.Alpha
	c.now[src] += alpha
	if !relay {
		if c.now[src] > c.egress[src] {
			c.egress[src] = c.now[src]
		}
		return c.now[src]
	}
	if c.egress[src] > at {
		at = c.egress[src]
	}
	dep := at + alpha
	c.egress[src] = dep
	return dep
}

// land accounts a settled receive posted at time post: the β·words
// transfer occupied the ingress port from max(port free, message
// departure, post) — independent of the compute clock after the post —
// and the clock only advances if the transfer finished after it. A
// blocking Recv is posted and settled at the same instant, so no part
// of its transfer can hide behind compute. land returns the transfer
// completion time, the stamp relays carry onward.
func (c *clock) land(dst, src int, e envelope, post float64) float64 {
	if src == dst {
		return c.now[dst]
	}
	start := c.ingress[dst]
	if e.at > start {
		start = e.at
	}
	if post > start {
		start = post
	}
	done := start + c.net.Beta*float64(e.words)
	c.ingress[dst] = done
	if done > c.now[dst] {
		c.now[dst] = done
	}
	return done
}

// compute charges γ·flops to rank.
func (c *clock) compute(rank int, flops int64) {
	c.now[rank] += c.net.Gamma * float64(flops)
}

// skew stretches rank's clock by extra seconds of compute — an injected
// straggler (SlowRank).
func (c *clock) skew(rank int, seconds float64) {
	c.now[rank] += seconds
}

func (c *clock) reset() {
	for i := range c.now {
		c.now[i] = 0
		c.ingress[i] = 0
		c.egress[i] = 0
	}
}
