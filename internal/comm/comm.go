package comm

import (
	"fmt"
	"slices"

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
// all distinct: a scan checks, a group is one grid dimension long) for
// the calling rank r, which must be a member.
func NewGroup(r *machine.Rank, ranks []int) *Group {
	me := -1
	for i, id := range ranks {
		if slices.Contains(ranks[:i], id) {
			panic(fmt.Sprintf("comm: duplicate rank %d in group", id))
		}
		if id == r.ID() {
			me = i
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("comm: rank %d not in group %v", r.ID(), ranks))
	}
	return &Group{rank: r, ranks: ranks, me: me}
}

// Index returns the caller's position within the group.
func (g *Group) Index() int { return g.me }

// treeLinks returns member me's parent (−1 at the root) and children (−1
// where absent) in the binary tree over n members rooted at index root.
func treeLinks(n, root, me int) (parent int, children [2]int) {
	rel := (me - root + n) % n
	parent = -1
	if rel > 0 {
		parent = ((rel-1)/2 + root) % n
	}
	for i := range children {
		children[i] = -1
		if c := 2*rel + 1 + i; c < n {
			children[i] = (c + root) % n
		}
	}
	return parent, children
}

// BcastMsgs is the number of messages member me of an n-member group
// sends and receives in a broadcast from root: one from its tree parent
// unless it is the root, plus one to each child.
func BcastMsgs(n, root, me int) int {
	parent, children := treeLinks(n, root, me)
	msgs := 0
	for _, l := range [3]int{parent, children[0], children[1]} {
		if l >= 0 {
			msgs++
		}
	}
	return msgs
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
// modified. It is ReduceScatter with every block ready on entry: where
// β·|block| ≥ α, members that enter together finish α + (n−1)·β·|block|
// later on the event clock — one send's latency, then the n−1 blocks
// back to back on the ingress port in the order they land.
func (g *Group) Reduce(root int, data []float64, tag int) []float64 {
	return g.ReduceScatter(root, data, tag, nil)
}

// ReduceScatter is Reduce with the blocks produced on the way: finish,
// when non-nil, is called with each non-empty block's word range
// [lo, hi) of data right before that block is first read, so a caller
// can compute its slice block by block and the reduction's transfers
// overlap what is still being computed. In order, the member at
// position pos
//
//  1. posts its n−1 block receives (none if its own block is empty),
//     so their transfers can start on the ingress port at once;
//  2. finishes and sends block pos+1, then pos+2, … (mod n) to that
//     block's owner — staggered, so no receiver is everybody's first
//     target;
//  3. finishes its own block;
//  4. settles the receives in the order the staggered sends land them,
//     pos−1, pos−2, … (an MPI Waitall), and folds its block of the n
//     slices in the fixed order n−1, n−2, …, 0 of their owners'
//     positions, its own in its place.
//
// The fold is the left fold from root+n−1 down to root (mod n) whatever
// n cuts the slice into: root anchors the fold order and the block
// assignment, it does not collect anything. Every member receives
// (n−1)·|block| words in n−1 messages.
func (g *Group) ReduceScatter(root int, data []float64, tag int, finish func(lo, hi int)) []float64 {
	g.checkRoot(root)
	n := len(g.ranks)
	pos := (g.me - root + n) % n
	mine := layout.Block(len(data), n, pos)
	// reqs[d−1] receives from position pos−d: the d-th block to land.
	// Groups of up to 17 keep them on the stack.
	var stack [16]machine.Request
	reqs := stack[:]
	if n-1 > len(stack) {
		reqs = make([]machine.Request, n-1)
	}
	if mine.Len() > 0 {
		for d := 1; d < n; d++ {
			g.rank.PostRecv(&reqs[d-1], g.ranks[(root+pos-d+n)%n], tag)
		}
	}
	for d := 1; d < n; d++ {
		q := (pos + d) % n
		if blk := layout.Block(len(data), n, q); blk.Len() > 0 {
			if finish != nil {
				finish(blk.Lo, blk.Hi)
			}
			g.rank.Send(g.ranks[(root+q)%n], tag, data[blk.Lo:blk.Hi])
		}
	}
	if mine.Len() == 0 {
		return nil
	}
	if finish != nil {
		finish(mine.Lo, mine.Hi)
	}
	own := data[mine.Lo:mine.Hi]
	for d := 1; d < n; d++ {
		if part := reqs[d-1].Wait(); len(part) != len(own) {
			panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(part), len(own)))
		}
	}
	recv := func(q int) []float64 { return reqs[(pos-q+n)%n-1].Wait() } // settled: returns the payload
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
		sum := sum[:len(part)] // one length: the fold takes no per-word bounds check
		for i, v := range part {
			sum[i] += v
		}
		if q != pos {
			machine.Release(part)
		}
	}
	return sum
}

// ReduceMsgs is the number of messages the member at position pos sends
// and receives in a Reduce of words-long slices over n members: one send
// per other member whose block is non-empty, plus n−1 receives if its own
// block is.
func ReduceMsgs(words, n, pos int) int {
	msgs := 0
	for q := 0; q < n; q++ {
		if q != pos && layout.Block(words, n, q).Len() > 0 {
			msgs++
		}
	}
	if layout.Block(words, n, pos).Len() > 0 {
		msgs += n - 1
	}
	return msgs
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
// the members' own Waits). Posted into reused storage (PostShare), it
// allocates nothing: it holds its parent receive by value.
type Pending struct {
	g    *Group
	tag  int
	done bool
	data []float64
	at   float64 // landing time of data (timed transports)
	// sh is the payload's handle in a by-reference broadcast (PostShare),
	// which every member drops with Drop (none in a group of one);
	// shared marks one this member has not dropped yet.
	sh     *machine.Shared
	shared bool

	// The parent receive to settle and the children to relay the payload
	// to as it lands.
	recv     machine.Request
	children [2]int // −1 where absent
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
	parent, children := treeLinks(len(g.ranks), root, g.me)
	if parent < 0 {
		// Root: the payload is already here; push it downstream now so
		// the children's transfers start at the post time, and complete.
		for _, c := range children {
			if c >= 0 {
				g.rank.Send(g.ranks[c], tag, data)
			}
		}
		p.at = g.rank.Now()
		p.done = true
		return p
	}
	g.rank.PostRecv(&p.recv, g.ranks[parent], tag)
	p.children = children
	return p
}

// PostShare is IBcast by reference, posted into p, storage the caller
// reuses (Stream's ring). The root's payload data, a loaned buffer,
// reaches every member along the same tree with the same messages and
// words (words, whatever the buffer's length), but no member copies it:
// each reads the root's buffer where it lies, under a hold taken for it
// on delivery (machine.Rank.SendShared) on a recycled handle
// (machine.Share). Every member, the root included, calls Drop once it
// no longer reads the payload; the last Drop returns the buffer to the
// pool. A warm round loop allocates nothing to post, relay or drop a
// unit. Only the root's data is read. A group of one takes no handle
// and no tree, and its Drop releases data.
func (g *Group) PostShare(p *Pending, root int, data []float64, words, tag int) {
	g.checkRoot(root)
	if len(g.ranks) == 1 {
		*p = Pending{data: data, at: g.rank.Now(), done: true, shared: true}
		return
	}
	*p = Pending{g: g, tag: tag, shared: true}
	parent, children := treeLinks(len(g.ranks), root, g.me)
	if parent >= 0 {
		g.rank.PostRecv(&p.recv, g.ranks[parent], tag)
		p.children = children
		return
	}
	sh := machine.Share(data, words)
	for _, c := range children {
		if c >= 0 {
			g.rank.SendShared(g.ranks[c], tag, sh)
		}
	}
	p.sh, p.data, p.at, p.done = sh, data, g.rank.Now(), true
}

// Wait blocks until the payload has landed here and been relayed to the
// caller's subtrees, and returns it. A receiving member of IBcast owns
// the returned buffer (it may be handed back with machine.Release); a
// member of PostShare reads it until it calls Drop; the root gets its own
// data back. Waiting again returns the same payload.
func (p *Pending) Wait() []float64 {
	if p.done {
		return p.data
	}
	// Receive from the parent, then relay to the subtrees stamped at the
	// landing time. A by-reference payload that arrived as this member's
	// own — a cross-process copy — is shared from here on under a
	// handle of its own.
	p.data = p.recv.Wait()
	p.at = p.recv.At()
	if p.shared {
		if p.sh = p.recv.Shared(); p.sh == nil {
			p.sh = machine.Share(p.data, p.recv.Words())
		}
	}
	for _, c := range p.children {
		if c < 0 {
			continue
		}
		if p.shared {
			p.g.rank.SendSharedAt(p.g.ranks[c], p.tag, p.sh, p.at)
		} else {
			p.g.rank.SendAt(p.g.ranks[c], p.tag, p.data, p.at)
		}
	}
	p.done = true
	return p.data
}

// Drop settles a by-reference broadcast (PostShare) — relaying
// it first if Wait has not — and gives up this member's hold on its
// payload, which the caller must not read afterwards. A second Drop
// panics: the handle may already hold another broadcast's payload.
func (p *Pending) Drop() {
	if !p.shared {
		panic("comm: Drop of a broadcast not held by reference")
	}
	p.Wait()
	p.shared = false
	if p.sh == nil {
		machine.Release(p.data)
		return
	}
	p.sh.Drop()
}

// At returns the logical landing time of the collective's payload at
// this member (timed machines; zero otherwise). Valid once Wait has
// returned.
func (p *Pending) At() float64 { return p.at }

// Stream is the broadcast–compute round loop of the Algorithm 1 rank
// program. Round i is per broadcasts, its units, which post(i, 0, p) …
// post(i, per−1, p) start in that order, each into its slot p of a ring
// of 2·per Pendings (per for one round) reused by value, the loop's one
// allocation (PostShare); run(i, units) settles them in
// whatever order it needs and computes on them. Before round i runs,
// every unit up to ahead past its last one is posted, so with ahead = 0
// a round's units go out together and only they are in flight, and with
// ahead = per the next round is in flight while round i computes, its
// tree traffic hidden behind that compute (§7.3). Slots are reused, so
// ahead must lie in [0, per]. Posting order and run's calls are the
// same for every ahead, and so is what run computes.
//
// Cancellation is polled once per round via r.Err; every rank sees the
// same context, and a cancelled context also interrupts ranks already
// parked in a Wait, so no rank is left behind.
func Stream(r *machine.Rank, rounds, per, ahead int, post func(i, j int, p *Pending), run func(i int, units []Pending)) error {
	if ahead < 0 || ahead > per {
		panic(fmt.Sprintf("comm: lookahead %d outside [0, %d]", ahead, per))
	}
	ring := make([]Pending, min(rounds, 2)*per) // unit u sits in slot u mod len(ring)
	posted := 0
	for i := 0; i < rounds; i++ {
		if err := r.Err(); err != nil {
			return err
		}
		for ; posted < min((i+1)*per+ahead, rounds*per); posted++ {
			post(posted/per, posted%per, &ring[posted%len(ring)])
		}
		run(i, ring[i*per%len(ring):][:per])
	}
	return nil
}

// PipelineRounds is Stream over rounds of two units, round seg's A
// and B panel broadcasts, which mul receives settled, A's first;
// overlap keeps the next round's pair in flight.
func PipelineRounds(r *machine.Rank, segs []layout.Range, overlap bool,
	startA, startB func(layout.Range) *Pending,
	mul func(seg layout.Range, aChunk, bChunk []float64)) error {
	ahead := 0
	if overlap {
		ahead = 2
	}
	return Stream(r, len(segs), 2, ahead, func(i, j int, p *Pending) {
		if j == 0 {
			*p = *startA(segs[i])
		} else {
			*p = *startB(segs[i])
		}
	}, func(i int, units []Pending) {
		mul(segs[i], units[0].Wait(), units[1].Wait())
	})
}

func (g *Group) checkRoot(root int) {
	if root < 0 || root >= len(g.ranks) {
		panic(fmt.Sprintf("comm: root %d out of group of %d", root, len(g.ranks)))
	}
}
