// Package wire is the socket mesh of a multi-process machine — the
// machine.Link behind machine.NewLinked: each rank (or group of ranks)
// is a separate OS process, connected over TCP or Unix sockets,
// exchanging length-prefixed binary frames. It is what turns the
// simulated COSMA machine into a genuinely distributed one while
// keeping rank programs — and their results — bit-for-bit identical to
// the in-process machines: the mailboxes, the counters, the receive
// deadline and the fault plan all stay in the Machine each process
// runs, and this package only carries what must cross a process
// boundary.
//
// # Topology
//
// A machine of p ranks is described by one address per rank
// (Config.Peers); ranks that share an address are hosted by the same
// process. Processes form a full mesh with exactly one connection per
// process pair: process i dials every process j < i (announcing itself
// with a HELLO frame) and accepts from every j > i. Each connection
// carries a writer goroutine draining a bounded frame queue and a
// reader goroutine handing inbound data frames to the local Machine,
// which posts them into the destination rank's (src, tag)-keyed
// mailbox — the one an in-process send reaches, which is what keeps
// the semantics (FIFO per key, eager sends, blocking receives)
// identical over the wire.
//
// # Control plane
//
// Every frame carries the run epoch of its sender: processes begin
// runs in lockstep but not simultaneously, so a frame from a run this
// process has not started yet is buffered until it does, and one from
// a run already over is dropped. Cancellation and rank failure
// broadcast ABORT, waking every process's parked receivers; a dead
// connection is a sticky failure that poisons subsequent runs until
// Recover rebuilds it. CTRL frames carry the post-run counter merge
// (Machine.SyncCounters) so the coordinator — the process hosting
// rank 0 — can report machine-wide communication volumes.
package wire
