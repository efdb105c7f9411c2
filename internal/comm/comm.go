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
// members along a binary tree and returns each member's copy: an IBcast
// settled where it is posted. Only the root's data argument is read;
// other members may pass nil.
func (g *Group) Bcast(root int, data []float64, tag int) []float64 {
	return g.IBcast(root, data, tag).Wait()
}

// Reduce sums the members' equally-sized data slices and leaves every
// member with its share of the total: the member at position
// pos = (me − root) mod n returns words layout.Block(len(data), n, pos)
// of it in a loaned buffer (nil for an empty block). data is not
// modified. Every member first sends each other member that member's
// block of its own slice — destinations staggered pos+1, pos+2, … so no
// receiver is everybody's first target — then folds its block of the n
// slices in the fixed order n−1, n−2, …, 0 of their owners' positions,
// its own in its place. That is the left fold from root+n−1 down to
// root (mod n) whatever n cuts the slice into: root anchors the fold
// order and the block assignment, it does not collect anything. Every
// member receives (n−1)·|block| words in n−1 messages, and members that
// enter together finish (n−1)·(α + β·|block|) later on the event clock.
func (g *Group) Reduce(root int, data []float64, tag int) []float64 {
	g.checkRoot(root)
	n := len(g.ranks)
	pos := (g.me - root + n) % n
	for d := 1; d < n; d++ {
		q := (pos + d) % n
		if blk := layout.Block(len(data), n, q); blk.Len() > 0 {
			g.rank.Send(g.ranks[(root+q)%n], tag, data[blk.Lo:blk.Hi])
		}
	}
	mine := layout.Block(len(data), n, pos)
	if mine.Len() == 0 {
		return nil
	}
	own := data[mine.Lo:mine.Hi]
	recv := func(q int) []float64 {
		part := g.rank.Recv(g.ranks[(root+q)%n], tag)
		if len(part) != len(own) {
			panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(part), len(own)))
		}
		return part
	}
	// The fold starts in position n−1's block: a received buffer is the
	// receiver's to keep, only the tail has to copy its own.
	var sum []float64
	if pos == n-1 {
		sum = machine.Loan(len(own))
		copy(sum, own)
	} else {
		sum = recv(n - 1)
	}
	for q := n - 2; q >= 0; q-- {
		part := own
		if q != pos {
			part = recv(q)
		}
		for i, v := range part {
			sum[i] += v
		}
		if q != pos {
			machine.Release(part)
		}
	}
	return sum
}

// Pending is an in-flight asynchronous broadcast (IBcast). Wait drives
// the remaining hops — settling the parent receive and relaying onward
// as the payload lands — and returns the caller's copy. On the timed
// transport every relay is stamped with its landing time, so a
// broadcast posted before a compute phase overlaps it end to end: no
// hop's departure is delayed to the relaying rank's compute-advanced
// clock.
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

	// The parent receive to settle and the children to relay the payload
	// to as it lands.
	recv     *machine.Request
	children []int
}

// IBcast posts a broadcast of data from the group member at index root
// along the binary tree: the root relays data to its children
// immediately (sends are eager and never block) and every other member
// posts a non-blocking receive from its tree parent. Settle with Wait;
// interior members relay to their subtrees as part of settling. Only
// the root's data argument is read.
func (g *Group) IBcast(root int, data []float64, tag int) *Pending {
	g.checkRoot(root)
	p := &Pending{g: g, tag: tag, data: data}
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

// Wait blocks until the payload has landed here and been relayed to the
// caller's subtrees, and returns it. A receiving member owns the
// returned buffer (it may be handed back with machine.Release); the
// root gets its own data back.
func (p *Pending) Wait() []float64 {
	if p.done {
		return p.data
	}
	// Receive from the parent, then relay to the subtrees stamped at the
	// landing time.
	p.data = p.recv.Wait()
	p.at = p.recv.At()
	for _, c := range p.children {
		p.g.rank.SendAt(p.g.ranks[c], p.tag, p.data, p.at)
	}
	p.done = true
	return p.data
}

// At returns the logical landing time of the collective's payload at
// this member (timed machines; zero otherwise). Valid once Wait has
// returned.
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

func (g *Group) checkRoot(root int) {
	if root < 0 || root >= len(g.ranks) {
		panic(fmt.Sprintf("comm: root %d out of group of %d", root, len(g.ranks)))
	}
}
