package comm

import (
	"fmt"
	"math"
	"math/bits"

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

// reduceLatencyWords is L = α/β of the reduction's grain formula, in
// words: what one more message costs a chain hop, measured in words of
// payload. It is deliberately far above the modelled networks' own ratio
// (pizdaint: 54): the grain also sets the frame size of the real
// transports, and below ~16 Ki words the socket mesh loses more wall
// clock to per-frame costs than the logical clock gains from finer
// pipelining.
const reduceLatencyWords = 16384

// ReduceSegments returns how Reduce cuts a w-word slice for a group of n
// members: the number of segments every chain link carries and the
// segment length (the grain) in words. A chain of n has n−2 relaying
// members, so c segments cost (n−2+c)·(α+β·w/c) on the critical path;
// the optimum grain sqrt(w·L/(n−2)) is rounded down to a power of two,
// the buffer pool's size classes. A chain of two has nothing to
// pipeline and sends one message.
func ReduceSegments(n, w int) (segs, grain int) {
	if n < 2 || w == 0 {
		return 0, 0
	}
	grain = w
	if n > 2 {
		opt := math.Sqrt(float64(w) * reduceLatencyWords / float64(n-2))
		grain = min(w, 1<<(bits.Len(uint(max(opt, 1)))-1))
	}
	return (w + grain - 1) / grain, grain
}

// Reduce sums the members' equally-sized data slices into the member at
// index root, which receives the total; other members return nil. data
// is not modified. The sum travels down a chain that ends at the root —
// positions root+n−1, …, root+1, root (mod n) — in ReduceSegments
// pieces: the tail sends its slice segment by segment, every member in
// between adds its own words into the received segment in place and
// passes the buffer on, and the root writes segment + own into one
// loaned result. Every member so receives each word once (the root
// needs w words; a tree's interior received 2w), successive segments'
// hops overlap, and the total is the left fold from tail to root
// whatever the grain.
func (g *Group) Reduce(root int, data []float64, tag int) []float64 {
	g.checkRoot(root)
	n := len(g.ranks)
	pos := (g.me - root + n) % n // links to the root
	var sum []float64
	if pos == 0 {
		sum = machine.Loan(len(data))
	}
	if n == 1 {
		copy(sum, data)
		return sum
	}
	from, to := g.ranks[(g.me+1)%n], g.ranks[(g.me+n-1)%n] // my chain neighbours
	_, grain := ReduceSegments(n, len(data))
	for lo := 0; lo < len(data); lo += grain {
		own := data[lo:min(lo+grain, len(data))]
		if pos == n-1 {
			g.rank.Send(to, tag, own)
			continue
		}
		seg := g.rank.Recv(from, tag)
		if len(seg) != len(own) {
			panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(seg), len(own)))
		}
		if pos > 0 {
			for i, v := range own {
				seg[i] += v
			}
			g.rank.SendOwned(to, tag, seg)
			continue
		}
		for i, v := range own {
			sum[lo+i] = seg[i] + v
		}
		machine.Release(seg)
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
// posts a non-blocking receive from its tree parent. Settle with Wait; interior members relay to their subtrees as
// part of settling. Only the root's data argument is read.
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
