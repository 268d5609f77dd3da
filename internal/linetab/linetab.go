// Package linetab is the simulator's per-line lookup table: a map from
// cache-line number to a small value, touched on every simulated
// reference by the caches, the directory and the sharing profiler.
//
// It is an open-addressed hash table with linear probing over a
// power-of-two slot array. A line number is placed by Fibonacci hashing
// (multiply by 2^64/φ, keep the top bits), which spreads the runs of
// consecutive line numbers an array walk produces. Deletion shifts the
// rest of the probe run back, so the table holds no tombstones and a
// lookup stops at the first empty slot.
//
// The zero value of V means "absent": Get returns it for a missing line,
// and setting a line to it deletes the line. Iteration order depends
// only on the sequence of Sets, so it is deterministic.
package linetab

import "math/bits"

const (
	fib      = 0x9E3779B97F4A7C15 // 2^64 / golden ratio, odd
	minSlots = 8
)

type slot[V comparable] struct {
	line uint64
	val  V
}

// Map maps line numbers to values of V. The zero Map is empty and ready
// to use. A Map is not safe for concurrent use.
type Map[V comparable] struct {
	slots []slot[V] // len is a power of two, or 0 before the first Set
	shift uint      // 64 - log2(len(slots))
	n     int
}

// home returns the slot a line hashes to.
func (m *Map[V]) home(line uint64) int { return int((line * fib) >> m.shift) }

// Get returns the value stored for line, or the zero V if there is none.
func (m *Map[V]) Get(line uint64) V {
	var zero V
	if m.n == 0 {
		return zero
	}
	mask := len(m.slots) - 1
	for i := m.home(line); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.val == zero || s.line == line {
			return s.val
		}
	}
}

// Set stores v for line. Setting the zero V deletes line.
func (m *Map[V]) Set(line uint64, v V) {
	var zero V
	if v == zero {
		m.delete(line)
		return
	}
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	for i := m.home(line); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.val == zero {
			*s = slot[V]{line, v}
			m.n++
			return
		}
		if s.line == line {
			s.val = v
			return
		}
	}
}

// Len returns the number of lines stored.
func (m *Map[V]) Len() int { return m.n }

// ForEach calls fn for every stored line, in slot order. fn must not
// call Set on m.
func (m *Map[V]) ForEach(fn func(line uint64, v V)) {
	var zero V
	for _, s := range m.slots {
		if s.val != zero {
			fn(s.line, s.val)
		}
	}
}

// delete removes line, then walks the rest of its probe run and moves
// back every entry that the hole would otherwise cut off from its home
// slot.
func (m *Map[V]) delete(line uint64) {
	var zero V
	if m.n == 0 {
		return
	}
	mask := len(m.slots) - 1
	hole := m.home(line)
	for {
		s := &m.slots[hole]
		if s.val == zero {
			return
		}
		if s.line == line {
			break
		}
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; m.slots[j].val != zero; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically after the hole, within (hole, j].
		if (j-m.home(m.slots[j].line))&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole] = slot[V]{}
	m.n--
}

// grow doubles the slot array (or allocates the first one) and
// reinserts every entry.
func (m *Map[V]) grow() {
	old := m.slots
	size := 2 * len(old)
	if size < minSlots {
		size = minSlots
	}
	m.slots = make([]slot[V], size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	m.n = 0
	var zero V
	for _, s := range old {
		if s.val != zero {
			m.Set(s.line, s.val)
		}
	}
}
