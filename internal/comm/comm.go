package comm

import (
	"fmt"

	"cosma/internal/layout"
	"cosma/internal/machine"
)

// Group is an ordered subset of machine ranks acting as a communicator.
// Collective calls must be made by every member with the same arguments
// (root, tag, data length).
type Group struct {
	rank  *machine.Rank
	ranks []int
	me    int
}

// NewGroup creates the view of the communicator over ranks (global ids,
// all distinct) for the calling rank r, which must be a member.
func NewGroup(r *machine.Rank, ranks []int) *Group {
	me := -1
	seen := make(map[int]bool, len(ranks))
	for i, id := range ranks {
		if seen[id] {
			panic(fmt.Sprintf("comm: duplicate rank %d in group", id))
		}
		seen[id] = true
		if id == r.ID() {
			me = i
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("comm: rank %d not in group %v", r.ID(), ranks))
	}
	return &Group{rank: r, ranks: ranks, me: me}
}

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.ranks) }

// Index returns the caller's position within the group.
func (g *Group) Index() int { return g.me }

// tree computes the caller's parent and children in the binary tree
// rooted at group index root.
func (g *Group) tree(root int) (parent int, children []int) {
	n := len(g.ranks)
	rel := (g.me - root + n) % n
	parent = -1
	if rel > 0 {
		parent = ((rel-1)/2 + root) % n
	}
	for _, c := range []int{2*rel + 1, 2*rel + 2} {
		if c < n {
			children = append(children, (c+root)%n)
		}
	}
	return parent, children
}

// Bcast distributes data from the group member at index root to all
// members along a binary tree and returns each member's copy. Only the
// root's data argument is read; other members may pass nil.
func (g *Group) Bcast(root int, data []float64, tag int) []float64 {
	g.checkRoot(root)
	if len(g.ranks) == 1 {
		return data
	}
	parent, children := g.tree(root)
	if parent >= 0 {
		data = g.rank.Recv(g.ranks[parent], tag)
	}
	for _, c := range children {
		g.rank.Send(g.ranks[c], tag, data)
	}
	return data
}

// Reduce sums the members' equally-sized data slices along a binary tree
// into the member at index root, which receives the total; other members
// return nil. data is not modified. The accumulator travels up the tree
// with zero-copy ownership transfer, and received child partials return
// to the machine's buffer pool once folded in.
func (g *Group) Reduce(root int, data []float64, tag int) []float64 {
	g.checkRoot(root)
	acc := machine.Loan(len(data))
	copy(acc, data)
	if len(g.ranks) == 1 {
		return acc
	}
	parent, children := g.tree(root)
	for _, c := range children {
		part := g.rank.Recv(g.ranks[c], tag)
		if len(part) != len(acc) {
			panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(part), len(acc)))
		}
		for i, v := range part {
			acc[i] += v
		}
		machine.Release(part)
	}
	if parent >= 0 {
		g.rank.SendOwned(g.ranks[parent], tag, acc)
		return nil
	}
	return acc
}

// Pending is an in-flight asynchronous collective (IBcast or IReduce).
// Wait drives the remaining hops — settling the underlying point-to-
// point requests and relaying onward as each payload lands — and
// returns the caller's result. On the timed transport every relay is
// stamped with its landing time, so a collective posted before a
// compute phase overlaps it end to end: no hop's departure is delayed
// to the relaying rank's compute-advanced clock.
//
// A Pending belongs to the rank that posted it; every group member must
// eventually settle its Pending (the tree's interior hops are driven by
// the members' own Waits).
type Pending struct {
	g    *Group
	tag  int
	done bool
	data []float64
	at   float64 // landing time of data (timed transports)

	// Broadcast descent: the parent receive to settle and the children
	// to relay the payload to as it lands.
	recv     machine.Request
	children []int

	// Reduction ascent: the child partials to fold into data and the
	// parent (group index, -1 at the root) to pass the sum up to.
	parts  []machine.Request
	parent int
}

// IBcast posts the asynchronous counterpart of Bcast: the root relays
// data to its children immediately (sends are eager and never block)
// and every other member posts a non-blocking receive from its tree
// parent. Settle with Wait or Test; interior members relay to their
// subtrees as part of settling. Only the root's data argument is read.
func (g *Group) IBcast(root int, data []float64, tag int) *Pending {
	g.checkRoot(root)
	p := &Pending{g: g, tag: tag, data: data, parent: -1}
	if len(g.ranks) == 1 {
		p.done = true
		return p
	}
	parent, children := g.tree(root)
	if parent < 0 {
		// Root: the payload is already here; push it downstream now so
		// the children's transfers start at the post time, and complete.
		for _, c := range children {
			g.rank.Send(g.ranks[c], tag, data)
		}
		p.at = g.rank.Now()
		p.done = true
		return p
	}
	p.recv = g.rank.IRecv(g.ranks[parent], tag)
	p.children = children
	return p
}

// IReduce posts the asynchronous counterpart of Reduce: the caller's
// contribution is captured (copied into a pooled accumulator) at post
// time, and non-blocking receives are posted for every child partial.
// Settling folds the partials as they land and passes the sum up the
// tree stamped with the time the last partial arrived, so a reduction
// posted before a compute phase climbs the tree overlapped with it.
// Wait returns the total at the root and nil elsewhere; data is not
// modified and may be reused immediately.
func (g *Group) IReduce(root int, data []float64, tag int) *Pending {
	g.checkRoot(root)
	acc := machine.Loan(len(data))
	copy(acc, data)
	p := &Pending{g: g, tag: tag, data: acc, at: g.rank.Now(), parent: -1}
	if len(g.ranks) == 1 {
		p.done = true
		return p
	}
	parent, children := g.tree(root)
	p.parent = parent
	for _, c := range children {
		p.parts = append(p.parts, g.rank.IRecv(g.ranks[c], tag))
	}
	return p
}

// Wait blocks until the collective's local part completes and returns
// the caller's result: the payload for a broadcast (every member), the
// total for a reduction root, nil for other reduction members. The
// returned buffer follows the same ownership rules as the blocking
// collectives (broadcast payloads and reduction totals may be handed
// back with machine.Release).
func (p *Pending) Wait() []float64 {
	if p.done {
		return p.data
	}
	if p.recv != nil {
		// Broadcast descent: receive from the parent, then relay to the
		// subtrees stamped at the landing time.
		p.data = p.recv.Wait()
		p.at = p.recv.At()
		for _, c := range p.children {
			p.g.rank.SendAt(p.g.ranks[c], p.tag, p.data, p.at)
		}
		p.done = true
		return p.data
	}
	// Reduction ascent: fold the child partials as they land.
	for _, part := range p.parts {
		chunk := part.Wait()
		if len(chunk) != len(p.data) {
			panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(chunk), len(p.data)))
		}
		for i, v := range chunk {
			p.data[i] += v
		}
		if at := part.At(); at > p.at {
			p.at = at
		}
		machine.Release(chunk)
	}
	p.done = true
	if p.parent >= 0 {
		p.g.rank.SendOwnedAt(p.g.ranks[p.parent], p.tag, p.data, p.at)
		p.data = nil
	}
	return p.data
}

// Test polls the collective without blocking: it returns (result, true)
// once the local part has completed — performing any relaying or
// folding that became possible — and (nil, false) otherwise.
func (p *Pending) Test() ([]float64, bool) {
	if p.done {
		return p.data, true
	}
	if p.recv != nil {
		if _, ok := p.recv.Test(); !ok {
			return nil, false
		}
		return p.Wait(), true // parent payload landed: relay and finish
	}
	for _, part := range p.parts {
		if _, ok := part.Test(); !ok {
			return nil, false
		}
	}
	return p.Wait(), true // every partial landed: fold without blocking
}

// At returns the logical landing time of the collective's payload at
// this member (timed transports; zero otherwise). Valid once Wait or a
// successful Test returned.
func (p *Pending) At() float64 { return p.at }

// PipelineRounds drives the broadcast–multiply round loop of the
// Algorithm 1 rank program: startA/startB post round seg's two
// panel broadcasts (the owner packing a chunk only when the group has
// someone to send it to) and mul folds a settled round into the local
// tile, releasing the chunk buffers. A chunk is what its broadcast
// settled to: the message at a receiver, the packed copy at a sending
// owner, nil at the owner of a group of one — which multiplies the
// panel where it already lies, as every owner may.
//
// With overlap false, each collective is settled — including its tree
// relays — before the next is posted, so the timed transport charges
// exactly the serial blocking-collective sequence. With overlap true,
// the loop double-buffers: round i+1's broadcasts are posted before
// round i's are settled, two loaned panel buffers per operand in
// flight, and the tree traffic hides behind mul's compute (§7.3). The
// mul call sequence is identical either way, so the computed values
// are bitwise-equal across both modes.
//
// Keeping the segments identical is what buys that bitwise identity,
// and it has a memory price: while round i multiplies, round i+1's
// panel pair is already resident, so a rank transiently holds one
// extra A+B chunk beyond the S words the plan's step size was fitted
// to (up to ~2S − |C tile| at the memory-squeezed step). That is the
// §7.3 trade — overlap spends buffer space to hide latency; callers
// that must hold the fitted S exactly should run synchronously.
//
// Cancellation is polled once per round via r.Err; every rank sees the
// same context, and a cancelled context also interrupts ranks already
// parked in a Wait, so no rank is left behind.
func PipelineRounds(r *machine.Rank, segs []layout.Range, overlap bool,
	startA, startB func(layout.Range) *Pending,
	mul func(seg layout.Range, aChunk, bChunk []float64)) error {
	if !overlap {
		for _, seg := range segs {
			if err := r.Err(); err != nil {
				return err
			}
			aChunk := startA(seg).Wait()
			bChunk := startB(seg).Wait()
			mul(seg, aChunk, bChunk)
		}
		return nil
	}
	nextA, nextB := startA(segs[0]), startB(segs[0])
	for i, seg := range segs {
		if err := r.Err(); err != nil {
			return err
		}
		curA, curB := nextA, nextB
		if i+1 < len(segs) {
			nextA, nextB = startA(segs[i+1]), startB(segs[i+1])
		}
		mul(seg, curA.Wait(), curB.Wait())
	}
	return nil
}

// AllReduce sums the members' slices and distributes the total to every
// member (reduce to index 0, then broadcast).
func (g *Group) AllReduce(data []float64, tag int) []float64 {
	total := g.Reduce(0, data, tag)
	return g.Bcast(0, total, tag+1)
}

// Gather collects the members' slices at the member with index root,
// concatenated in group order; other members return nil. Members may pass
// slices of different lengths.
func (g *Group) Gather(root int, data []float64, tag int) [][]float64 {
	g.checkRoot(root)
	if g.me != root {
		g.rank.Send(g.ranks[root], tag, data)
		return nil
	}
	out := make([][]float64, len(g.ranks))
	for i, id := range g.ranks {
		if i == root {
			// The root's own slot is a pooled copy, matching the Recv'd
			// slots (and the zero-alloc discipline of Bcast/Reduce): the
			// caller may Release every entry uniformly.
			cp := machine.Loan(len(data))
			copy(cp, data)
			out[i] = cp
			continue
		}
		out[i] = g.rank.Recv(id, tag)
	}
	return out
}

// Scatter sends parts[i] from the root to member i and returns each
// member's part. Only the root's parts argument is read.
func (g *Group) Scatter(root int, parts [][]float64, tag int) []float64 {
	g.checkRoot(root)
	if g.me == root {
		if len(parts) != len(g.ranks) {
			panic(fmt.Sprintf("comm: scatter %d parts for %d members", len(parts), len(g.ranks)))
		}
		for i, id := range g.ranks {
			if i == root {
				continue
			}
			g.rank.Send(id, tag, parts[i])
		}
		cp := machine.Loan(len(parts[root]))
		copy(cp, parts[root])
		return cp
	}
	return g.rank.Recv(g.ranks[root], tag)
}

func (g *Group) checkRoot(root int) {
	if root < 0 || root >= len(g.ranks) {
		panic(fmt.Sprintf("comm: root %d out of group of %d", root, len(g.ranks)))
	}
}

// BcastVolume returns the total words a W-word binary-tree broadcast over
// a group of n members moves (each non-root receives W once), and
// ReduceVolume the same for a reduction. These are the model counterparts
// used by the analytic cost models.
func BcastVolume(n int, w float64) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n-1) * w
}

// ReduceVolume returns the total words moved by a W-word binary-tree
// reduction over n members: every non-root sends its partial once.
func ReduceVolume(n int, w float64) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n-1) * w
}

// TreeDepth returns the depth ⌈log₂ n⌉ of the binary broadcast and
// reduction trees over n members — the number of sequential message hops
// a collective contributes to the timed transport's critical path, and
// the latency term the analytic models charge per collective.
func TreeDepth(n int) int {
	d := 0
	for v := 1; v < n; v <<= 1 {
		d++
	}
	return d
}
