// Package directory implements the full-bit-vector cache directory of the
// simulated machine. The directory tracks, per cache line, which clusters
// hold copies and whether one holds it exclusively, exactly as in the
// paper: "The directory is implemented as a full bit vector with
// replacement hints", supporting the line states NOT_CACHED, SHARED and
// EXCLUSIVE. Replacement hints keep the sharer vector exact: a cluster
// that silently drops a clean line tells its home directory, so no stale
// invalidations are ever sent.
//
// Directory state is logically distributed across the home clusters; this
// implementation keeps a single line table (linetab.Map) keyed by line
// number, holding only lines cached somewhere, because homing affects
// only latency, which the coherence layer computes from the address
// space's page-home table.
package directory

import (
	"fmt"
	"math/bits"

	"clustersim/internal/linetab"
)

// State is the directory's view of one cache line.
type State uint8

const (
	NotCached State = iota
	Shared
	Exclusive
)

// String names the directory state as in the paper.
func (s State) String() string {
	switch s {
	case NotCached:
		return "NOT_CACHED"
	case Shared:
		return "SHARED"
	case Exclusive:
		return "EXCLUSIVE"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Entry is the directory record for one line. The sharer vector is a
// 64-bit mask over clusters — the paper's machine has at most 64 clusters
// (64 processors, 1 per cluster). The zero Entry is a NotCached line;
// the directory stores no such entry.
type Entry struct {
	State   State
	Sharers uint64
}

// Owner returns the exclusive owner cluster; it panics unless the entry
// is Exclusive with exactly one sharer bit set.
func (e Entry) Owner() int {
	if e.State != Exclusive || popcount(e.Sharers) != 1 {
		panic(fmt.Sprintf("directory: Owner of non-exclusive entry %+v", e))
	}
	return trailingZeros(e.Sharers)
}

// NumSharers returns how many clusters hold a copy.
func (e Entry) NumSharers() int { return popcount(e.Sharers) }

// Has reports whether cluster holds a copy.
func (e Entry) Has(cluster int) bool { return e.Sharers&(1<<uint(cluster)) != 0 }

// Directory is the collection of entries for every line ever cached.
type Directory struct {
	numClusters int
	entries     linetab.Map[Entry]
}

// New creates a directory for a machine of numClusters clusters (≤ 64).
func New(numClusters int) (*Directory, error) {
	if numClusters <= 0 || numClusters > 64 {
		return nil, fmt.Errorf("directory: numClusters %d out of range [1,64]", numClusters)
	}
	return &Directory{numClusters: numClusters}, nil
}

// Lookup returns the entry for a line; absent lines are NotCached.
func (d *Directory) Lookup(line uint64) Entry {
	return d.entries.Get(line)
}

// AddSharer records that cluster fetched the line in the shared state.
// The entry must not be Exclusive (the coherence layer downgrades the
// owner first).
func (d *Directory) AddSharer(line uint64, cluster int) {
	d.check(cluster)
	e := d.entries.Get(line)
	if e.State == Exclusive {
		panic(fmt.Sprintf("directory: AddSharer on EXCLUSIVE line %#x", line))
	}
	e.State = Shared
	e.Sharers |= 1 << uint(cluster)
	d.entries.Set(line, e)
}

// SetExclusive records that cluster now owns the line exclusively; every
// other copy must already have been invalidated by the caller.
func (d *Directory) SetExclusive(line uint64, cluster int) {
	d.check(cluster)
	d.entries.Set(line, Entry{State: Exclusive, Sharers: 1 << uint(cluster)})
}

// Downgrade moves an Exclusive line to Shared, keeping the owner as a
// sharer (a remote read of dirty data causes a cache-to-cache transfer
// and the owner retains a shared copy).
func (d *Directory) Downgrade(line uint64) {
	e := d.entries.Get(line)
	if e.State != Exclusive {
		panic(fmt.Sprintf("directory: Downgrade on %v line %#x", e.State, line))
	}
	e.State = Shared
	d.entries.Set(line, e)
}

// ReplacementHint records that cluster dropped its clean copy. When the
// last copy goes, the line returns to NotCached. Hints for lines or
// clusters the directory does not consider sharers are ignored (they can
// arise when an eviction races an instantaneous invalidation).
func (d *Directory) ReplacementHint(line uint64, cluster int) {
	d.check(cluster)
	e := d.entries.Get(line)
	if !e.Has(cluster) {
		return
	}
	e.Sharers &^= 1 << uint(cluster)
	if e.Sharers == 0 {
		e = Entry{} // last copy gone: NotCached, deleted
	}
	d.entries.Set(line, e)
}

// Writeback records that the exclusive owner evicted its dirty copy; the
// line returns to NotCached (memory at the home is now up to date).
func (d *Directory) Writeback(line uint64, cluster int) {
	d.check(cluster)
	e := d.entries.Get(line)
	if e.State != Exclusive || !e.Has(cluster) {
		panic(fmt.Sprintf("directory: Writeback of line %#x from non-owner cluster %d (entry %+v)",
			line, cluster, e))
	}
	d.entries.Set(line, Entry{})
}

// ClearAll invalidates every copy of the line (the requester's write has
// been serialised); the caller is responsible for invalidating the caches.
// It returns the clusters that held copies, as a bitmask.
func (d *Directory) ClearAll(line uint64) uint64 {
	e := d.entries.Get(line)
	d.entries.Set(line, Entry{})
	return e.Sharers
}

// Len returns how many lines are currently cached somewhere.
func (d *Directory) Len() int { return d.entries.Len() }

// ForEach visits every entry; for invariant auditing in tests.
func (d *Directory) ForEach(fn func(line uint64, e Entry)) { d.entries.ForEach(fn) }

func (d *Directory) check(cluster int) {
	if cluster < 0 || cluster >= d.numClusters {
		panic(fmt.Sprintf("directory: cluster %d out of range [0,%d)", cluster, d.numClusters))
	}
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
