// Package comm provides group collectives over machine ranks, built
// from the known processor grid and communication pattern rather than a
// generic runtime (§7.2): broadcast is a binary tree, reduction a
// reduce-scatter.
//
// All algorithms in this repository move matrix panels exclusively
// through these collectives and point-to-point shifts, so their counted
// traffic is the collectives' traffic. The two shapes differ because
// their busiest members do: a broadcast's root must send w words
// whatever the shape, and a tree reaches every member in ⌈log₂ n⌉ hops;
// a sum nobody needs whole has no such member. The paper distributes C
// over all p ranks like A and B (§6–7), so Reduce leaves the member at
// position pos = (me − root) mod n with words layout.Block(w, n, pos)
// of the total: every member sends each other member that member's
// block of its own slice and folds its block of the n slices in the
// fixed order n−1, …, 0 of their owners' positions — bitwise the left
// fold from root+n−1 down to root, whatever n is. Every member receives
// (n−1)/n of a slice in n−1 messages; funnelling the slice into one
// member costs that member all of it, and the schedule's cost is its
// busiest rank's. The reduction is Group.ReduceScatter, whose optional
// finish hook lets the caller produce each block just before it is
// sent — the rank program multiplies its last round that way, block by
// block, so the reduction's transfers overlap that compute (§7.3) —
// and whose receives, posted first, settle in the order they land.
// Group.Reduce is ReduceScatter with no hook; the name and the root
// argument stay: root anchors the fold order and the block assignment,
// and benchmark/ calls Group.Reduce by name. Blocks and shares are
// loaned from the machine pool, receives live on the stack or in the
// Pendings of Stream's ring, and handles are recycled (PostShare): the
// steady-state round loop is allocation-free.
//
// The broadcast is one asynchronous tree walk (IBcast returning a
// Pending): posting returns immediately and settling with Wait drives
// the remaining hops, relaying the payload down the tree stamped at the
// time it landed. The round loop, Stream, posts each round's
// broadcasts — and, with a lookahead, the next round's — before the
// round's kernel call, hiding the tree traffic behind compute (§7.3);
// the blocking Bcast is the same walk settled where it is posted, and
// charges a timed machine's clocks exactly what a receive-then-send
// tree would.
package comm
