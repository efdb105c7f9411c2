// Package machine simulates the paper's distributed machine model
// (§2.1, §2.3): p processors, each with a private local memory of S
// words, that send, receive and compute. Every rank runs as a
// goroutine; messages are matched MPI-style on (source, tag) with
// unbounded eager buffering, so any schedule with matching sends and
// receives executes deterministically and without artificial deadlock.
// Runs are context-cancellable (RunCtx): cancellation propagates at
// communication-round boundaries and wakes ranks parked in a receive.
//
// There is one machine. A Machine owns the per-rank keyed mailboxes and
// the per-rank Counters — words and messages sent and received, the
// horizontal I/O cost Q and latency cost L of §2.3, i.e. what the paper
// measures with the mpiP profiler — and every rank action passes
// through one of three choke points in rank.go: the send path
// (Send, SendOwned and SendAt, where the FaultPlan hook sits), the take
// path (Recv and Request.Wait) and Compute. Counting substitutes for
// MPI on a real interconnect: communication volume is a property of the
// schedule, not of the wire, so counting words that cross rank
// boundaries in-process yields the same per-rank volumes. Two optional
// parts hang off those paths, each behind one nil check:
//
//   - a clock (NewTimed): an α-β-γ event clock per rank, turning the
//     same execution into a runtime prediction whose maximum is the
//     schedule's critical path; NetworkParams.WithGamma substitutes a
//     measured compute constant (matrix.Calibrate) into a preset;
//   - a Link (NewLinked): the connection mesh of internal/machine/wire,
//     which a send falls through to when another OS process hosts the
//     destination rank, and which feeds inbound messages back into the
//     local mailboxes.
//
// Receives exist in blocking (Recv) and posted (IRecv returning a
// Request settled with Wait) form. On a timed machine the two differ in
// cost semantics, not just control flow: a blocking receive charges its
// β·words serially on the receiver's clock, while a posted receive's
// transfer runs on the rank's ingress port concurrently with subsequent
// compute and only extends the clock if it outlives it — the §7.3
// communication–computation overlap, which is what lets one schedule
// executed both ways measure the Figure 12 gain on its critical path.
// SendAt relays a payload stamped at its landing time, the primitive
// behind pipelined collective trees. There is no barrier: the paper's
// schedule (Algorithm 1) is broadcasts, one reduction and overlapped
// receives, and the model prices exactly those.
//
// A sync.Pool-backed buffer discipline (Loan / Release / SendOwned)
// lets schedules move panels zero-copy, which is what keeps the
// steady-state round loops allocation-free.
package machine
