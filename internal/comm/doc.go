// Package comm provides group collectives over machine ranks, built
// from the known processor grid and communication pattern rather than a
// generic runtime (§7.2): broadcast is a binary tree, reduction a
// pipelined chain.
//
// All algorithms in this repository move matrix panels exclusively
// through these collectives and point-to-point shifts, so their counted
// traffic is the collectives' traffic. The two shapes differ because
// their busiest members do: a broadcast's root must send w words
// whatever the shape, and a tree reaches every member in ⌈log₂ n⌉ hops;
// a reduction's root needs only w words, yet a tree's interior members
// receive 2w — two whole child partials, one after the other. Reduce
// therefore sums down a chain that ends at the root: every member
// receives each word once and adds its own into the buffer in passing,
// and the slice travels in ReduceSegments pieces so the hops overlap.
// ReduceSegments is also what the analytic models count a fiber's
// messages with. Segments are loaned from the machine pool and handed
// on without copying, which is what keeps the steady-state round loop
// allocation-free.
//
// The broadcast is one asynchronous tree walk (IBcast returning a
// Pending): posting returns immediately and settling with Wait drives
// the remaining hops, relaying the payload down the tree stamped at the
// time it landed. The pipelined round loops post the next round's
// broadcasts before the current round's kernel call, hiding the tree
// traffic behind compute (§7.3); the blocking Bcast is the same walk
// settled where it is posted, and charges a timed machine's clocks
// exactly what a receive-then-send tree would.
package comm
