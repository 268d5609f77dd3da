// Package stats defines the execution-time and miss accounting used
// throughout the simulator. Following the paper, each processor's
// execution time is divided into CPU busy time, load stall time, load
// merge stall time (waiting for a line another processor in the cluster
// already prefetched), and synchronization wait time.
package stats

import (
	"encoding/json"
	"strconv"

	"clustersim/internal/coherence"
)

// Breakdown is one processor's execution-time decomposition, in cycles.
type Breakdown struct {
	CPU        int64 // compute plus reference issue cycles
	LoadStall  int64 // read miss stalls
	MergeStall int64 // read stalls merged into an outstanding fill
	SyncWait   int64 // barrier, lock and flag waits
}

// Total returns the sum of all components.
func (b Breakdown) Total() int64 {
	return b.CPU + b.LoadStall + b.MergeStall + b.SyncWait
}

// Plus returns the component-wise sum of two breakdowns.
func (b Breakdown) Plus(o Breakdown) Breakdown {
	return Breakdown{
		CPU:        b.CPU + o.CPU,
		LoadStall:  b.LoadStall + o.LoadStall,
		MergeStall: b.MergeStall + o.MergeStall,
		SyncWait:   b.SyncWait + o.SyncWait,
	}
}

// Minus returns the component-wise difference b - o: the exact inverse
// of Plus, so interval deltas taken between two cumulative snapshots
// tile the whole (the critical-path analyzer's phase invariant).
func (b Breakdown) Minus(o Breakdown) Breakdown {
	return Breakdown{
		CPU:        b.CPU - o.CPU,
		LoadStall:  b.LoadStall - o.LoadStall,
		MergeStall: b.MergeStall - o.MergeStall,
		SyncWait:   b.SyncWait - o.SyncWait,
	}
}

// Counters tallies memory references by outcome.
type Counters struct {
	Reads  uint64
	Writes uint64

	ReadHits    uint64
	WriteHits   uint64
	ReadMisses  uint64
	WriteMisses uint64
	Upgrades    uint64
	Merges      uint64
	WriteMerges uint64

	// Service location of read and write misses (paper Table 1 rows,
	// plus the snoopy-bus services of shared-memory clusters).
	LocalClean   uint64
	LocalDirty   uint64
	RemoteClean  uint64
	RemoteDirty  uint64
	IntraCluster uint64
}

// Misses returns the fetch misses (read + write) — the population the
// sharing profiler (internal/profile) classifies, so a profile's
// class totals must sum to exactly this over the same interval.
func (c Counters) Misses() uint64 { return c.ReadMisses + c.WriteMisses }

// Plus returns the field-wise sum of two counter sets.
func (c Counters) Plus(o Counters) Counters {
	return Counters{
		Reads:        c.Reads + o.Reads,
		Writes:       c.Writes + o.Writes,
		ReadHits:     c.ReadHits + o.ReadHits,
		WriteHits:    c.WriteHits + o.WriteHits,
		ReadMisses:   c.ReadMisses + o.ReadMisses,
		WriteMisses:  c.WriteMisses + o.WriteMisses,
		Upgrades:     c.Upgrades + o.Upgrades,
		Merges:       c.Merges + o.Merges,
		WriteMerges:  c.WriteMerges + o.WriteMerges,
		LocalClean:   c.LocalClean + o.LocalClean,
		LocalDirty:   c.LocalDirty + o.LocalDirty,
		RemoteClean:  c.RemoteClean + o.RemoteClean,
		RemoteDirty:  c.RemoteDirty + o.RemoteDirty,
		IntraCluster: c.IntraCluster + o.IntraCluster,
	}
}

// Minus returns the field-wise difference c - o: the exact inverse of
// Plus, pairing cumulative-counter snapshots into interval deltas (the
// telemetry sampler and the critical-path analyzer's phase snapshots).
func (c Counters) Minus(o Counters) Counters {
	return Counters{
		Reads:        c.Reads - o.Reads,
		Writes:       c.Writes - o.Writes,
		ReadHits:     c.ReadHits - o.ReadHits,
		WriteHits:    c.WriteHits - o.WriteHits,
		ReadMisses:   c.ReadMisses - o.ReadMisses,
		WriteMisses:  c.WriteMisses - o.WriteMisses,
		Upgrades:     c.Upgrades - o.Upgrades,
		Merges:       c.Merges - o.Merges,
		WriteMerges:  c.WriteMerges - o.WriteMerges,
		LocalClean:   c.LocalClean - o.LocalClean,
		LocalDirty:   c.LocalDirty - o.LocalDirty,
		RemoteClean:  c.RemoteClean - o.RemoteClean,
		RemoteDirty:  c.RemoteDirty - o.RemoteDirty,
		IntraCluster: c.IntraCluster - o.IntraCluster,
	}
}

// CountRead records the outcome of one read access.
func (c *Counters) CountRead(a coherence.Access) {
	c.Reads++
	switch a.Class {
	case coherence.Hit:
		c.ReadHits++
	case coherence.ReadMiss:
		c.ReadMisses++
		c.countHops(a.Hops)
	case coherence.MergeMiss:
		c.Merges++
	}
}

// CountWrite records the outcome of a write access.
func (c *Counters) CountWrite(a coherence.Access) {
	c.Writes++
	switch a.Class {
	case coherence.Hit:
		c.WriteHits++
	case coherence.WriteMiss:
		c.WriteMisses++
		c.countHops(a.Hops)
	case coherence.Upgrade:
		c.Upgrades++
	case coherence.WriteMerge:
		c.WriteMerges++
	}
}

func (c *Counters) countHops(h coherence.Hops) {
	switch h {
	case coherence.HopLocalClean:
		c.LocalClean++
	case coherence.HopLocalDirty:
		c.LocalDirty++
	case coherence.HopRemoteClean:
		c.RemoteClean++
	case coherence.HopRemoteDirty:
		c.RemoteDirty++
	case coherence.HopIntraCluster:
		c.IntraCluster++
	}
}

// References returns the total number of memory references.
func (c Counters) References() uint64 { return c.Reads + c.Writes }

// ReadMissRate returns read misses (including merges) per read.
func (c Counters) ReadMissRate() float64 {
	if c.Reads == 0 {
		return 0
	}
	return float64(c.ReadMisses+c.Merges) / float64(c.Reads)
}

// WriteMissRate returns write misses (including write merges) per
// write, mirroring ReadMissRate. Upgrades are excluded: the line was
// present, only ownership was missing.
func (c Counters) WriteMissRate() float64 {
	if c.Writes == 0 {
		return 0
	}
	return float64(c.WriteMisses+c.WriteMerges) / float64(c.Writes)
}

// MergeRate returns merged references (read and write) per reference —
// the cluster-prefetching overlap the paper's merge-stall component
// measures the cost of.
func (c Counters) MergeRate() float64 {
	refs := c.References()
	if refs == 0 {
		return 0
	}
	return float64(c.Merges+c.WriteMerges) / float64(refs)
}

// Proc is the complete per-processor record.
type Proc struct {
	Breakdown
	Counters
}

// Plus returns the sum of two per-processor records.
func (p Proc) Plus(o Proc) Proc {
	return Proc{Breakdown: p.Breakdown.Plus(o.Breakdown), Counters: p.Counters.Plus(o.Counters)}
}

// Minus returns the difference of two per-processor records.
func (p Proc) Minus(o Proc) Proc {
	return Proc{Breakdown: p.Breakdown.Minus(o.Breakdown), Counters: p.Counters.Minus(o.Counters)}
}

// procFields has Proc's fields and none of its methods: the reflective
// encoding/json decoding that UnmarshalJSON falls back to.
type procFields Proc

// UnmarshalJSON decodes the flat object encoding/json writes for a Proc
// ({"CPU":17745,...,"IntraCluster":0}) without reflection: journal
// replay and the fabric's result frames decode 64 of them per point.
// Any input outside that shape (escaped, unknown or case-variant keys,
// null, fractions, exponents, leading zeros, a sign on an unsigned
// counter, overflow, bad separators or trailing bytes) is decoded by
// encoding/json instead, so the value and the error are always exactly
// what the reflective decoder gives. The encoder is unchanged.
func (p *Proc) UnmarshalJSON(b []byte) error {
	q := *p
	if !q.decodeFlat(b) {
		return json.Unmarshal(b, (*procFields)(p))
	}
	*p = q
	return nil
}

// decodeFlat decodes b into p and reports whether b had the flat shape;
// on false, p may hold part of b.
func (p *Proc) decodeFlat(b []byte) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	for {
		// Key: an unescaped string naming one of the fields.
		if i == len(b) || b[i] != '"' {
			return false
		}
		k := i + 1
		for k < len(b) && b[k] != '"' && b[k] != '\\' {
			k++
		}
		if k == len(b) || b[k] != '"' {
			return false
		}
		sf, uf := p.field(b[i+1 : k])
		if sf == nil && uf == nil {
			return false
		}
		i = skipSpace(b, k+1)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)

		// Value: an integer literal (ParseUint refuses a sign).
		start := i
		if i < len(b) && b[i] == '-' {
			i++
		}
		d := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == d || (b[d] == '0' && i-d > 1) {
			return false
		}
		var err error
		if sf != nil {
			*sf, err = strconv.ParseInt(string(b[start:i]), 10, 64)
		} else {
			*uf, err = strconv.ParseUint(string(b[start:i]), 10, 64)
		}
		if err != nil {
			return false
		}

		i = skipSpace(b, i)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b)
		default:
			return false
		}
	}
}

// field returns the counter named by an exact JSON key.
func (p *Proc) field(key []byte) (*int64, *uint64) {
	switch string(key) {
	case "CPU":
		return &p.CPU, nil
	case "LoadStall":
		return &p.LoadStall, nil
	case "MergeStall":
		return &p.MergeStall, nil
	case "SyncWait":
		return &p.SyncWait, nil
	case "Reads":
		return nil, &p.Reads
	case "Writes":
		return nil, &p.Writes
	case "ReadHits":
		return nil, &p.ReadHits
	case "WriteHits":
		return nil, &p.WriteHits
	case "ReadMisses":
		return nil, &p.ReadMisses
	case "WriteMisses":
		return nil, &p.WriteMisses
	case "Upgrades":
		return nil, &p.Upgrades
	case "Merges":
		return nil, &p.Merges
	case "WriteMerges":
		return nil, &p.WriteMerges
	case "LocalClean":
		return nil, &p.LocalClean
	case "LocalDirty":
		return nil, &p.LocalDirty
	case "RemoteClean":
		return nil, &p.RemoteClean
	case "RemoteDirty":
		return nil, &p.RemoteDirty
	case "IntraCluster":
		return nil, &p.IntraCluster
	}
	return nil, nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
