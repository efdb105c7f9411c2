package memsim

import "fmt"

// Memory is a fast memory of fixed word capacity shared by tracked arrays.
type Memory struct {
	capacity int
	used     int
	peak     int
	loads    int64
	stores   int64
	arrays   int
}

// NewMemory returns a fast memory with the given capacity in words.
func NewMemory(capacity int) *Memory {
	if capacity < 1 {
		panic(fmt.Sprintf("memsim: capacity %d must be ≥ 1", capacity))
	}
	return &Memory{capacity: capacity}
}

// Used returns the number of currently resident words.
func (m *Memory) Used() int { return m.used }

// Peak returns the maximum number of simultaneously resident words.
func (m *Memory) Peak() int { return m.peak }

// Loads returns the total words loaded from slow memory.
func (m *Memory) Loads() int64 { return m.loads }

// Stores returns the total words stored to slow memory.
func (m *Memory) Stores() int64 { return m.stores }

// IO returns loads + stores, the schedule's vertical I/O cost Q.
func (m *Memory) IO() int64 { return m.loads + m.stores }

// Array is a slow-memory array whose words must be loaded before access.
type Array struct {
	mem      *Memory
	id       int
	data     []float64
	resident []bool
}

// NewArray allocates a zeroed array of n words in slow memory.
func (m *Memory) NewArray(n int) *Array {
	if n < 0 {
		panic(fmt.Sprintf("memsim: negative array size %d", n))
	}
	m.arrays++
	return &Array{mem: m, id: m.arrays, data: make([]float64, n), resident: make([]bool, n)}
}

// NewArrayFrom places a copy of data in slow memory.
func (m *Memory) NewArrayFrom(data []float64) *Array {
	a := m.NewArray(len(data))
	copy(a.data, data)
	return a
}

// Len returns the array length in words.
func (a *Array) Len() int { return len(a.data) }

// Load makes words [lo, hi) resident, counting one load per word that was
// not already resident. It panics if the fast memory would overflow.
func (a *Array) Load(lo, hi int) {
	a.checkRange(lo, hi)
	for i := lo; i < hi; i++ {
		if a.resident[i] {
			continue
		}
		if a.mem.used >= a.mem.capacity {
			panic(fmt.Sprintf("memsim: loading word %d of array %d exceeds capacity %d",
				i, a.id, a.mem.capacity))
		}
		a.resident[i] = true
		a.mem.used++
		a.mem.loads++
		if a.mem.used > a.mem.peak {
			a.mem.peak = a.mem.used
		}
	}
}

// Alloc makes words [lo, hi) resident without counting loads: the words
// are created in fast memory (e.g. fresh partial sums), not read from slow
// memory. Panics on overflow.
func (a *Array) Alloc(lo, hi int) {
	a.checkRange(lo, hi)
	for i := lo; i < hi; i++ {
		if a.resident[i] {
			continue
		}
		if a.mem.used >= a.mem.capacity {
			panic(fmt.Sprintf("memsim: allocating word %d of array %d exceeds capacity %d",
				i, a.id, a.mem.capacity))
		}
		a.resident[i] = true
		a.mem.used++
		if a.mem.used > a.mem.peak {
			a.mem.peak = a.mem.used
		}
	}
}

// Store writes words [lo, hi) back to slow memory, counting one store per
// word. The words stay resident; pair with Evict to free them.
func (a *Array) Store(lo, hi int) {
	a.checkRange(lo, hi)
	for i := lo; i < hi; i++ {
		if !a.resident[i] {
			panic(fmt.Sprintf("memsim: store of non-resident word %d of array %d", i, a.id))
		}
		a.mem.stores++
	}
}

// Evict drops residency of words [lo, hi) without writing them back.
// Evicting non-resident words is a no-op.
func (a *Array) Evict(lo, hi int) {
	a.checkRange(lo, hi)
	for i := lo; i < hi; i++ {
		if a.resident[i] {
			a.resident[i] = false
			a.mem.used--
		}
	}
}

// At reads word i, panicking if it is not resident.
func (a *Array) At(i int) float64 {
	if !a.resident[i] {
		panic(fmt.Sprintf("memsim: read of non-resident word %d of array %d", i, a.id))
	}
	return a.data[i]
}

// Set writes word i, panicking if it is not resident.
func (a *Array) Set(i int, v float64) {
	if !a.resident[i] {
		panic(fmt.Sprintf("memsim: write of non-resident word %d of array %d", i, a.id))
	}
	a.data[i] = v
}

// Resident reports whether word i is in fast memory.
func (a *Array) Resident(i int) bool { return a.resident[i] }

// Slow returns the backing slow-memory contents without residency checks.
// Use it only to inspect final results after a schedule completes.
func (a *Array) Slow() []float64 { return a.data }

func (a *Array) checkRange(lo, hi int) {
	if lo < 0 || hi > len(a.data) || lo > hi {
		panic(fmt.Sprintf("memsim: range [%d,%d) out of array %d length %d", lo, hi, a.id, len(a.data)))
	}
}
