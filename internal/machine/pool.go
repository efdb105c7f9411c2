package machine

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The shared buffer pool behind the zero-copy message discipline. Every
// payload the transports copy internally is drawn from here, and
// receivers may hand buffers back with Release once a message is dead,
// so steady-state simulation of large panels recycles memory instead of
// allocating one slice per hop.
//
// Buffers are pooled in power-of-two size classes. To keep Get/Put free
// of interface-boxing allocations, the pools store *header values (a
// pointer, which fits an interface word) rather than raw slices; the
// headers themselves are recycled through a second pool. The classes
// are sync.Pools, which drop what they hold on every second GC: a free
// list that outlived GCs would keep every rank's C tile alive between
// runs. Allocating less means fewer GCs, and so fewer drops.

type bufHeader struct{ data []float64 }

var headerPool = sync.Pool{New: func() interface{} { return new(bufHeader) }}

// classPools[c] holds buffers with capacity exactly 1<<c.
var classPools [33]sync.Pool

// sizeClass returns the smallest c with 1<<c ≥ n (n ≥ 1).
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Loan returns an n-word buffer from the shared pool (contents
// unspecified — callers overwrite it fully). The caller owns the buffer
// and may pass it on with SendOwned or hand it back with Release.
func Loan(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if c >= len(classPools) {
		return make([]float64, n)
	}
	if v := classPools[c].Get(); v != nil {
		h := v.(*bufHeader)
		buf := h.data[:n]
		h.data = nil
		headerPool.Put(h)
		return buf
	}
	return make([]float64, n, 1<<c)
}

// Release returns a buffer obtained from Loan or Recv to the shared
// pool. The caller must not touch buf afterwards. Release is only safe
// for buffers the caller owns outright — obtained from Loan or Recv and
// aliased nowhere else; pooling a slice that other code still references
// corrupts whatever Loan later hands it to. Buffers with a
// non-power-of-two capacity (which cannot have come from the pool) are
// silently dropped, so over-releasing Pack-allocated payloads is
// harmless, but that check is a heuristic, not a safety guarantee.
func Release(buf []float64) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	class := bits.TrailingZeros(uint(c))
	if class >= len(classPools) {
		return
	}
	h := headerPool.Get().(*bufHeader)
	h.data = buf[:c]
	classPools[class].Put(h)
}

// Shared is a payload several ranks read in place — a panel its owner
// packed once for every member of a broadcast — under a hold count.
// Share gives the owner the first hold, each delivery by reference
// (Rank.SendShared) adds one for its receiver before the message is
// posted, and every holder calls Drop once it no longer reads the
// buffer; the last Drop returns the buffer to the pool. A message
// carrying it counts the words it was shared with: the panel's logical
// size, not its padded packed length. A message that cannot travel by
// reference carries a private copy, which its receiver owns. A handle
// lives from Share to its last Drop, which puts it on a free list for
// Share to hand out again: no holder touches a handle after its own
// Drop, and a warm round loop allocates none.
type Shared struct {
	data  []float64
	words int
	holds atomic.Int32
}

// spare holds the handles whose last hold has dropped. The last Drop
// may run on any rank, hence the lock.
var spare struct {
	sync.Mutex
	free []*Shared
}

// Share wraps data, a buffer the caller owns (from Loan or a receive),
// in a handle holding it once for the caller; messages carrying it
// count words.
func Share(data []float64, words int) *Shared {
	spare.Lock()
	var sh *Shared
	if n := len(spare.free); n > 0 {
		sh, spare.free = spare.free[n-1], spare.free[:n-1]
	}
	spare.Unlock()
	if sh == nil {
		sh = new(Shared)
	}
	sh.data, sh.words = data, words
	sh.holds.Store(1)
	return sh
}

// Data returns the shared buffer: read-only to every holder, and nil
// once the last hold is dropped.
func (sh *Shared) Data() []float64 { return sh.data }

// Drop gives up one hold; the last returns the buffer to the pool and
// the handle to Share. A Drop with no hold left panics — a second
// release of a buffer the pool may already have loaned out would corrupt
// its next owner — but only until Share hands the handle out again:
// after that a stale Drop takes the new holder's hold. A holder that
// might drop twice guards itself (comm.Pending.Drop does).
func (sh *Shared) Drop() {
	switch n := sh.holds.Add(-1); {
	case n == 0:
		buf := sh.data
		sh.data = nil
		Release(buf)
		spare.Lock()
		spare.free = append(spare.free, sh)
		spare.Unlock()
	case n < 0:
		panic("machine: shared payload dropped more often than held")
	}
}
