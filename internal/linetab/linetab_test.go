package linetab

import (
	"math/rand"
	"sort"
	"testing"
)

// check compares m against the reference map want and audits the
// linear-probing invariant: every entry is reachable from its home slot
// without crossing an empty slot. It reports whether any entry's probe
// run wraps past the end of the slot array.
func check(t *testing.T, m *Map[uint32], want map[uint64]uint32) (wrapped bool) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(want))
	}
	seen := make(map[uint64]uint32)
	m.ForEach(func(line uint64, v uint32) {
		if _, dup := seen[line]; dup {
			t.Fatalf("ForEach visited line %d twice", line)
		}
		seen[line] = v
	})
	if len(seen) != len(want) {
		t.Fatalf("ForEach visited %d lines, want %d", len(seen), len(want))
	}
	for line, v := range want {
		if seen[line] != v {
			t.Fatalf("ForEach gave line %d = %d, want %d", line, seen[line], v)
		}
	}
	mask := len(m.slots) - 1
	for i, s := range m.slots {
		if s.val == 0 {
			continue
		}
		h := m.home(s.line)
		for j := h; j != i; j = (j + 1) & mask {
			if m.slots[j].val == 0 {
				t.Fatalf("line %d in slot %d is cut off from its home %d by the empty slot %d", s.line, i, h, j)
			}
		}
		if i < h {
			wrapped = true
		}
	}
	return wrapped
}

// positions records the slot of every stored line.
func positions(m *Map[uint32]) map[uint64]int {
	pos := make(map[uint64]int)
	for i, s := range m.slots {
		if s.val != 0 {
			pos[s.line] = i
		}
	}
	return pos
}

// moved reports whether any line in after sits in another slot than in
// before.
func moved(before, after map[uint64]int) bool {
	for line, i := range after {
		if before[line] != i {
			return true
		}
	}
	return false
}

// TestMapMatchesGoMap drives a Map and a Go map through the same random
// operations over a pool of keys small enough that probe runs collide,
// wrap around the table end, and shift back on deletion. A quarter of
// each pool hashes to the last slot at every table size up to 256, so
// their probe runs must wrap.
func TestMapMatchesGoMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, keys := range []int{3, 13, 40} {
		pool := make([]uint64, 0, keys)
		for line := uint64(0); len(pool) < keys/4; line++ {
			if (line*fib)>>56 == 0xFF {
				pool = append(pool, line)
			}
		}
		for len(pool) < keys {
			pool = append(pool, uint64(r.Int63n(1<<16)))
		}
		var m Map[uint32]
		want := make(map[uint64]uint32)
		wrapped, shifted := false, false
		for op := 0; op < 20000; op++ {
			line := pool[r.Intn(keys)]
			switch k := r.Intn(10); {
			case k < 5:
				v := uint32(r.Intn(1000)) + 1
				m.Set(line, v)
				want[line] = v
			case k < 8:
				before := positions(&m)
				m.Set(line, 0)
				delete(want, line)
				if moved(before, positions(&m)) {
					shifted = true
				}
			default:
				if got := m.Get(line); got != want[line] {
					t.Fatalf("keys %d op %d: Get(%d) = %d, want %d", keys, op, line, got, want[line])
				}
			}
			if check(t, &m, want) {
				wrapped = true
			}
		}
		if keys > 3 && !(wrapped && shifted) {
			t.Errorf("keys %d: wrapped=%v shifted=%v; the sequence missed a case", keys, wrapped, shifted)
		}
	}
}

func TestZeroMap(t *testing.T) {
	var m Map[*int]
	if m.Get(7) != nil || m.Len() != 0 {
		t.Fatal("zero Map is not empty")
	}
	m.Set(7, nil) // deleting from an empty map is a no-op
	m.ForEach(func(uint64, *int) { t.Fatal("ForEach visited a line of an empty map") })
	x := 1
	m.Set(0, &x) // line 0 is an ordinary key
	if m.Get(0) != &x || m.Get(8) != nil || m.Len() != 1 {
		t.Fatal("line 0 not stored")
	}
}

// TestForEachOrderDeterministic: two maps built by the same operations
// iterate in the same order.
func TestForEachOrderDeterministic(t *testing.T) {
	build := func() []uint64 {
		var m Map[uint32]
		for i := uint64(0); i < 500; i++ {
			m.Set(i*7919, uint32(i)+1)
			if i%3 == 0 {
				m.Set(i*7919/2, 0)
			}
		}
		var order []uint64
		m.ForEach(func(line uint64, _ uint32) { order = append(order, line) })
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// FuzzMap reads data as (op, line) byte pairs and applies each to a Map
// and a Go map, comparing after every step.
func FuzzMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 9, 0, 17, 1, 1, 2, 9, 3, 0})
	f.Add([]byte{0, 255, 0, 0, 1, 255, 2, 0, 1, 0, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Map[uint32]
		want := make(map[uint64]uint32)
		for i := 0; i+1 < len(data); i += 2 {
			line := uint64(data[i+1])
			switch data[i] % 4 {
			case 0:
				v := uint32(i) + 1
				m.Set(line, v)
				want[line] = v
			case 1:
				m.Set(line, 0)
				delete(want, line)
			case 2:
				if got := m.Get(line); got != want[line] {
					t.Fatalf("Get(%d) = %d, want %d", line, got, want[line])
				}
			case 3:
				var lines []uint64
				m.ForEach(func(l uint64, _ uint32) { lines = append(lines, l) })
				sort.Slice(lines, func(a, b int) bool { return lines[a] < lines[b] })
				for j := 1; j < len(lines); j++ {
					if lines[j] == lines[j-1] {
						t.Fatalf("ForEach visited line %d twice", lines[j])
					}
				}
			}
			check(t, &m, want)
		}
	})
}

type lineState struct{ tag uint64 }

// benchLines is a cache-sized set of resident lines: runs of
// consecutive line numbers scattered over a large address range, as
// array walks over several regions produce.
func benchLines() []uint64 {
	r := rand.New(rand.NewSource(1))
	var lines []uint64
	for len(lines) < 4096 {
		base := uint64(r.Int63n(1 << 26))
		for i := uint64(0); i < 64; i++ {
			lines = append(lines, base+i)
		}
	}
	return lines
}

var sinkLine *lineState

// BenchmarkMapGet looks up resident lines in a Map and, as the
// baseline, in the Go map it replaces.
func BenchmarkMapGet(b *testing.B) {
	lines := benchLines()
	order := rand.New(rand.NewSource(2)).Perm(len(lines))
	b.Run("linetab", func(b *testing.B) {
		var m Map[*lineState]
		for _, l := range lines {
			m.Set(l, &lineState{l})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkLine = m.Get(lines[order[i%len(order)]])
		}
	})
	b.Run("gomap", func(b *testing.B) {
		m := make(map[uint64]*lineState)
		for _, l := range lines {
			m[l] = &lineState{l}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkLine = m[lines[order[i%len(order)]]]
		}
	})
}
