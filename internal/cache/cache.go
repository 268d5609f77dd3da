// Package cache models the shared cluster caches of the simulated
// machine. Following the paper's methodology the caches are fully
// associative with LRU replacement ("we do not want to include the effect
// of conflict misses that are due to limited associativity"), with 64-byte
// lines by default, and either finite (sized per processor) or infinite.
//
// A line can be INVALID (absent), SHARED, or EXCLUSIVE. Lines being
// filled by an outstanding READ or WRITE miss are additionally pending
// until the fill's ready time; a read that finds a pending line is a
// MERGE miss and blocks until the data returns.
package cache

import (
	"fmt"

	"clustersim/internal/linetab"
)

// Clock mirrors engine.Clock to avoid a dependency cycle.
type Clock = int64

// State is the cache-line coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
)

// String names the state as in the paper (INVALID/SHARED/EXCLUSIVE).
func (s State) String() string {
	switch s {
	case Invalid:
		return "INVALID"
	case Shared:
		return "SHARED"
	case Exclusive:
		return "EXCLUSIVE"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// ReplacePolicy selects the victim-choice policy. The paper uses LRU; FIFO
// is provided for the ablation benchmarks.
type ReplacePolicy uint8

const (
	LRU ReplacePolicy = iota
	FIFO
)

// Line is one resident cache line.
type Line struct {
	Tag   uint64 // line number (address >> lineShift)
	State State

	// Pending is set while the fill for this line is still in flight.
	// ReadyAt is the cycle the data arrives; FillState is the state the
	// line assumes then (Shared for read fills, Exclusive for write
	// fills, upgraded in place if a write hits a pending read fill).
	Pending   bool
	ReadyAt   Clock
	FillState State

	prev, next *Line // LRU list, most recent at head
}

// Cache is one cluster's fully associative cache.
type Cache struct {
	capacity int // lines; 0 means infinite
	policy   ReplacePolicy
	lines    linetab.Map[*Line]
	head     *Line // most recently used
	tail     *Line // least recently used
	free     *Line // recycled Line structs

	// Evictions counts replacement victims; for sanity checks.
	Evictions uint64
}

// New creates a cache holding capacityLines lines (0 = infinite).
func New(capacityLines int, policy ReplacePolicy) *Cache {
	if capacityLines < 0 {
		panic("cache: negative capacity")
	}
	return &Cache{capacity: capacityLines, policy: policy}
}

// Capacity returns the line capacity (0 = infinite).
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of resident lines.
func (c *Cache) Len() int { return c.lines.Len() }

// Lookup returns the resident line for tag, or nil, resolving an expired
// pending fill (now >= ReadyAt) to its final state first. It does not
// update recency; call Touch on a hit.
func (c *Cache) Lookup(tag uint64, now Clock) *Line {
	l := c.lines.Get(tag)
	if l == nil {
		return nil
	}
	if l.Pending && now >= l.ReadyAt {
		l.Pending = false
		l.State = l.FillState
	}
	return l
}

// Peek returns the resident line for tag without settling pending fills
// or updating recency — the sanitizer's non-mutating view. A pending
// line whose ReadyAt has passed is still reported Pending; readers must
// use FillState for its effective coherence state.
func (c *Cache) Peek(tag uint64) *Line { return c.lines.Get(tag) }

// Touch marks the line most recently used.
func (c *Cache) Touch(l *Line) {
	if c.policy == FIFO {
		return // FIFO order is insertion order only
	}
	if c.head == l {
		return
	}
	c.unlink(l)
	c.pushFront(l)
}

// Insert installs a pending fill for tag, issued at now, that completes
// at readyAt in fillState. If the cache is full it evicts a victim first
// and returns it (with its pre-eviction tag and state) so the caller can
// send a writeback or replacement hint to the directory. Inserting a tag
// that is already resident panics — callers must Lookup first.
func (c *Cache) Insert(tag uint64, fillState State, now, readyAt Clock) (victim Line, evicted bool) {
	if c.lines.Get(tag) != nil {
		panic(fmt.Sprintf("cache: duplicate insert of line %#x", tag))
	}
	if c.capacity != 0 && c.lines.Len() >= c.capacity {
		v := c.chooseVictim(now)
		if v != nil {
			victim = *v
			evicted = true
			c.remove(v)
			c.Evictions++
		}
	}
	l := c.newLine()
	l.Tag = tag
	l.State = Invalid
	l.Pending = true
	l.ReadyAt = readyAt
	l.FillState = fillState
	c.lines.Set(tag, l)
	c.pushFront(l)
	return victim, evicted
}

// Invalidate removes tag from the cache (invalidations are instantaneous
// in the paper's protocol and may target a pending line). It reports
// whether the line was resident.
func (c *Cache) Invalidate(tag uint64) bool {
	l := c.lines.Get(tag)
	if l == nil {
		return false
	}
	c.remove(l)
	return true
}

// Downgrade moves an Exclusive line to Shared (remote read of dirty data).
func (c *Cache) Downgrade(tag uint64) {
	l := c.lines.Get(tag)
	if l == nil {
		return
	}
	if l.Pending {
		if l.FillState == Exclusive {
			l.FillState = Shared
		}
		return
	}
	if l.State == Exclusive {
		l.State = Shared
	}
}

// chooseVictim returns the least recently used non-pending line at time
// now, settling expired fills along the way. It returns nil if every
// resident line's fill is still in flight (the caller then over-commits
// by one line; with realistic miss latencies this is vanishingly rare).
func (c *Cache) chooseVictim(now Clock) *Line {
	for l := c.tail; l != nil; l = l.prev {
		if l.Pending && now >= l.ReadyAt {
			l.Pending = false
			l.State = l.FillState
		}
		if !l.Pending {
			return l
		}
	}
	return nil
}

// ForEach visits every resident line; for invariant auditing in tests.
func (c *Cache) ForEach(fn func(*Line)) {
	for l := c.head; l != nil; l = l.next {
		fn(l)
	}
}

func (c *Cache) remove(l *Line) {
	c.unlink(l)
	c.lines.Set(l.Tag, nil)
	l.prev, l.next = nil, c.free
	c.free = l
}

func (c *Cache) newLine() *Line {
	if c.free != nil {
		l := c.free
		c.free = l.next
		*l = Line{}
		return l
	}
	return &Line{}
}

func (c *Cache) pushFront(l *Line) {
	l.prev = nil
	l.next = c.head
	if c.head != nil {
		c.head.prev = l
	}
	c.head = l
	if c.tail == nil {
		c.tail = l
	}
}

func (c *Cache) unlink(l *Line) {
	if l.prev != nil {
		l.prev.next = l.next
	} else if c.head == l {
		c.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else if c.tail == l {
		c.tail = l.prev
	}
	l.prev, l.next = nil, nil
}
