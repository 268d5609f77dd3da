package coherence

import (
	"fmt"
	"math/bits"

	"clustersim/internal/cache"
	"clustersim/internal/directory"
	"clustersim/internal/fault"
	"clustersim/internal/linetab"
	"clustersim/internal/memory"
)

// DefaultBusCycles is the intra-cluster snoopy-bus transfer latency of a
// shared-main-memory cluster — "the snoopy bus increases the latency of
// fetching data from the memory because it adds arbitration, queueing
// and electrical delays", but it is still far cheaper than leaving the
// cluster.
const DefaultBusCycles Clock = 15

// MemClusterSystem models the paper's second cluster organisation
// (Section 2): each processor keeps a private cache; the processors of a
// cluster are connected by a snoopy bus to an effectively infinite
// attraction memory, "as in a flat COMA style machine". Misses that find
// their line anywhere inside the cluster are satisfied over the bus;
// only lines absent from the whole cluster use the inter-cluster
// directory protocol with the Table 1 latencies.
//
// The essential contrasts with the shared-cache System are exactly the
// paper's: there is no destructive interference between processors
// (private caches), working sets are duplicated rather than overlapped,
// and communication savings appear as cheap intra-cluster bus transfers
// rather than outright hits.
type MemClusterSystem struct {
	as          *memory.AddressSpace
	dir         *directory.Directory       // cluster-granularity sharer sets
	l1          []cache.Store              // per processor
	attraction  []linetab.Map[cache.State] // per cluster; Invalid = absent
	clusterSize int
	lat         Latencies
	bus         Clock
	lineShift   uint
	numClusters int
	clusterStat []Stats
	obs         Observer
	inj         *fault.Injector
}

// NewMemClusterSystem builds a shared-main-memory-cluster system.
// l1Lines is the per-processor cache capacity in lines (0 = infinite);
// clusterSize processors share each attraction memory.
func NewMemClusterSystem(as *memory.AddressSpace, numClusters, clusterSize, l1Lines, ways int,
	lineBytes uint64, lat Latencies, bus Clock, policy cache.ReplacePolicy) (*MemClusterSystem, error) {
	if numClusters != as.NumClusters() {
		return nil, fmt.Errorf("coherence: %d clusters but address space has %d",
			numClusters, as.NumClusters())
	}
	if clusterSize <= 0 {
		return nil, fmt.Errorf("coherence: cluster size %d must be positive", clusterSize)
	}
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("coherence: line size %d must be a power of two", lineBytes)
	}
	if bus <= 0 {
		return nil, fmt.Errorf("coherence: bus latency %d must be positive", bus)
	}
	dir, err := directory.New(numClusters)
	if err != nil {
		return nil, err
	}
	s := &MemClusterSystem{
		as:          as,
		dir:         dir,
		clusterSize: clusterSize,
		lat:         lat,
		bus:         bus,
		lineShift:   uint(bits.TrailingZeros64(lineBytes)),
		numClusters: numClusters,
		clusterStat: make([]Stats, numClusters),
	}
	nProcs := numClusters * clusterSize
	s.l1 = make([]cache.Store, nProcs)
	for i := range s.l1 {
		if ways == 0 {
			s.l1[i] = cache.New(l1Lines, policy)
			continue
		}
		sa, err := cache.NewSetAssoc(l1Lines, ways, policy)
		if err != nil {
			return nil, err
		}
		s.l1[i] = sa
	}
	s.attraction = make([]linetab.Map[cache.State], numClusters)
	return s, nil
}

// LineBytes returns the coherence granularity.
func (s *MemClusterSystem) LineBytes() uint64 { return 1 << s.lineShift }

// ClusterStats returns one cluster's protocol counters.
func (s *MemClusterSystem) ClusterStats(cluster int) Stats { return s.clusterStat[cluster] }

// ResetStats zeroes the protocol counters.
func (s *MemClusterSystem) ResetStats() {
	for i := range s.clusterStat {
		s.clusterStat[i] = Stats{}
	}
}

// L1 returns a processor's private cache, for inspection.
func (s *MemClusterSystem) L1(proc int) cache.Store { return s.l1[proc] }

// SetObserver attaches a protocol-event observer. Only cluster-level
// copy losses are reported: a private-cache eviction or invalidation
// whose line the attraction memory retains is invisible, because the
// cluster never lost the data.
func (s *MemClusterSystem) SetObserver(o Observer) { s.obs = o }

// SetFaults attaches a deterministic fault injector (nil detaches).
// Only inter-cluster directory traffic is exposed to faults; the
// intra-cluster snoopy bus is reliable.
func (s *MemClusterSystem) SetFaults(in *fault.Injector) { s.inj = in }

// injectFetch consults the fault plan for one global fetch or ownership
// request, as System.injectFetch.
func (s *MemClusterSystem) injectFetch(line uint64, cluster int, hops Hops, now Clock) Clock {
	if s.inj == nil {
		return 0
	}
	extra, nacks := s.inj.Fetch(line, cluster, hops != HopLocalClean, now)
	st := &s.clusterStat[cluster]
	st.Nacks += uint64(nacks)
	st.FaultCycles += uint64(extra)
	return extra
}

// InCluster reports whether the cluster's attraction memory holds line.
func (s *MemClusterSystem) InCluster(cluster int, line uint64) bool {
	return s.attraction[cluster].Get(line) != cache.Invalid
}

// Read simulates a load by processor proc (in cluster) at time now.
func (s *MemClusterSystem) Read(proc, cluster int, addr memory.Addr, now Clock) Access {
	s.check(proc, cluster, addr)
	line := addr >> s.lineShift
	l1 := s.l1[proc]
	if l := l1.Lookup(line, now); l != nil {
		l1.Touch(l)
		if l.Pending {
			return Access{Class: MergeMiss, Stall: l.ReadyAt - now}
		}
		return Access{Class: Hit}
	}
	// In-cluster: the snoopy bus finds the line in a sibling cache or
	// the attraction memory — the paper's cache-to-cache sharing.
	if s.InCluster(cluster, line) {
		s.insertL1(proc, cluster, line, cache.Shared, now, now+s.bus)
		return Access{Class: ReadMiss, Hops: HopIntraCluster, Stall: s.bus}
	}
	// Global miss: directory protocol at cluster granularity.
	home := s.as.HomeOf(addr)
	e := s.dir.Lookup(line)
	var hops Hops
	if e.State == directory.Exclusive {
		owner := e.Owner()
		if owner == cluster {
			panic(fmt.Sprintf("coherence: cluster %d misses on line %#x it owns", cluster, line))
		}
		s.downgradeCluster(owner, line)
		s.dir.Downgrade(line)
		switch {
		case cluster == home:
			hops = HopLocalDirty
		case owner == home:
			hops = HopRemoteClean
		default:
			hops = HopRemoteDirty
		}
	} else {
		if cluster == home {
			hops = HopLocalClean
		} else {
			hops = HopRemoteClean
		}
	}
	lat := s.lat.of(hops) + s.injectFetch(line, cluster, hops, now)
	s.dir.AddSharer(line, cluster)
	s.attraction[cluster].Set(line, cache.Shared)
	s.insertL1(proc, cluster, line, cache.Shared, now, now+lat)
	return Access{Class: ReadMiss, Hops: hops, Stall: lat}
}

// Write simulates a store by processor proc at time now. As in the
// shared-cache organisation, store latency is hidden; ownership moves
// instantaneously. The cluster keeps ownership whenever it already has
// it — the paper's "invalidations ... stay within the same cluster".
func (s *MemClusterSystem) Write(proc, cluster int, addr memory.Addr, now Clock) Access {
	s.check(proc, cluster, addr)
	line := addr >> s.lineShift
	l1 := s.l1[proc]
	if l := l1.Lookup(line, now); l != nil {
		l1.Touch(l)
		if l.Pending {
			if l.FillState == cache.Exclusive {
				return Access{Class: WriteMerge}
			}
			ack := s.makeExclusive(proc, cluster, line, now)
			l.FillState = cache.Exclusive
			return Access{Class: Upgrade, Stall: ack}
		}
		switch l.State {
		case cache.Exclusive:
			return Access{Class: Hit}
		case cache.Shared:
			ack := s.makeExclusive(proc, cluster, line, now)
			l.State = cache.Exclusive
			return Access{Class: Upgrade, Stall: ack}
		}
	}
	if s.InCluster(cluster, line) {
		// In-cluster write miss: bus fetch (hidden) plus ownership.
		ack := s.makeExclusive(proc, cluster, line, now)
		s.insertL1(proc, cluster, line, cache.Exclusive, now, now+s.bus)
		return Access{Class: WriteMiss, Hops: HopIntraCluster, Stall: s.bus + ack}
	}
	// Global write miss.
	home := s.as.HomeOf(addr)
	e := s.dir.Lookup(line)
	var hops Hops
	if e.State == directory.Exclusive {
		owner := e.Owner()
		switch {
		case cluster == home:
			hops = HopLocalDirty
		case owner == home:
			hops = HopRemoteClean
		default:
			hops = HopRemoteDirty
		}
	} else {
		if cluster == home {
			hops = HopLocalClean
		} else {
			hops = HopRemoteClean
		}
	}
	lat := s.lat.of(hops) + s.injectFetch(line, cluster, hops, now)
	ack := s.invalidateOtherClusters(line, cluster, proc, now)
	s.dir.SetExclusive(line, cluster)
	s.attraction[cluster].Set(line, cache.Exclusive)
	s.insertL1(proc, cluster, line, cache.Exclusive, now, now+lat)
	return Access{Class: WriteMiss, Hops: hops, Stall: lat + ack}
}

// makeExclusive gives proc's cluster exclusive ownership of line and
// removes every other copy: other clusters entirely, and the sibling
// processors' private caches within the cluster. It returns the
// writer's wait for the slowest injected straggler acknowledgement
// (always 0 when the cluster already owned the line — no messages
// leave the cluster, and the snoopy bus is reliable).
func (s *MemClusterSystem) makeExclusive(proc, cluster int, line uint64, now Clock) Clock {
	var ack Clock
	if s.attraction[cluster].Get(line) != cache.Exclusive {
		ack = s.invalidateOtherClusters(line, cluster, proc, now)
		s.dir.SetExclusive(line, cluster)
		s.attraction[cluster].Set(line, cache.Exclusive)
	}
	base := cluster * s.clusterSize
	for q := base; q < base+s.clusterSize; q++ {
		if q == proc {
			continue
		}
		if s.l1[q].Invalidate(line) {
			s.clusterStat[cluster].InvalidationsSent++
			s.clusterStat[cluster].InvalidationsReceived++
		}
	}
	return ack
}

// invalidateOtherClusters removes line from every cluster except the
// writer's: their attraction memories and all their processors' caches.
// The write was issued by proc at time now; each victim cluster's loss
// is reported to the observer. It returns the writer's wait for the
// slowest injected straggler acknowledgement (0 without fault
// injection) — acks are gathered in parallel, so waits overlap.
func (s *MemClusterSystem) invalidateOtherClusters(line uint64, cluster, proc int, now Clock) Clock {
	var ackDelay Clock
	mask := s.dir.ClearAll(line)
	mask &^= 1 << uint(cluster)
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(j)
		s.attraction[j].Set(line, cache.Invalid)
		base := j * s.clusterSize
		for q := base; q < base+s.clusterSize; q++ {
			s.l1[q].Invalidate(line)
		}
		s.clusterStat[j].InvalidationsReceived++
		s.clusterStat[cluster].InvalidationsSent++
		if s.obs != nil {
			s.obs.Invalidated(line, proc, cluster, j, now)
		}
		if s.inj != nil {
			if d := s.inj.AckDelay(line, j, now); d > 0 {
				s.clusterStat[j].AckDelays++
				if d > ackDelay {
					ackDelay = d
				}
			}
		}
	}
	s.clusterStat[cluster].FaultCycles += uint64(ackDelay)
	return ackDelay
}

// downgradeCluster moves a cluster's exclusive line to shared: the
// attraction memory keeps a shared copy and any dirty private copy is
// downgraded in place.
func (s *MemClusterSystem) downgradeCluster(cluster int, line uint64) {
	s.attraction[cluster].Set(line, cache.Shared)
	base := cluster * s.clusterSize
	for q := base; q < base+s.clusterSize; q++ {
		s.l1[q].Downgrade(line)
	}
}

// insertL1 installs a fill in a private cache. Evictions stay inside the
// cluster: clean victims drop silently (the attraction memory retains
// the line), dirty victims write back into the attraction memory — no
// directory traffic either way.
func (s *MemClusterSystem) insertL1(proc, cluster int, line uint64, fill cache.State, now, readyAt Clock) {
	victim, evicted := s.l1[proc].Insert(line, fill, now, readyAt)
	if evicted && victim.State == cache.Exclusive {
		s.clusterStat[cluster].Writebacks++ // intra-cluster writeback
	}
}

func (s *MemClusterSystem) check(proc, cluster int, addr memory.Addr) {
	if proc < 0 || proc >= len(s.l1) || proc/s.clusterSize != cluster {
		panic(fmt.Sprintf("coherence: processor %d is not in cluster %d", proc, cluster))
	}
	if !s.as.Mapped(addr) {
		panic(fmt.Sprintf("coherence: access to unallocated address %#x", addr))
	}
}

// CheckLine audits one line's directory/attraction/private-cache
// agreement at time now — the sanitizer's per-transaction spot check.
// Peek keeps the audit non-mutating.
func (s *MemClusterSystem) CheckLine(addr memory.Addr, now Clock) error {
	line := addr >> s.lineShift
	e := s.dir.Lookup(line)
	for cl := 0; cl < s.numClusters; cl++ {
		if present := s.InCluster(cl, line); e.Has(cl) != present {
			return fmt.Errorf("line %#x: directory bit %v but attraction presence %v in cluster %d",
				line, e.Has(cl), present, cl)
		}
	}
	if e.State == directory.Exclusive && e.NumSharers() != 1 {
		return fmt.Errorf("line %#x: EXCLUSIVE with %d sharers", line, e.NumSharers())
	}
	for p := range s.l1 {
		l := s.l1[p].Peek(line)
		if l == nil {
			continue
		}
		cl := p / s.clusterSize
		st := s.attraction[cl].Get(line)
		if st == cache.Invalid {
			return fmt.Errorf("processor %d caches line %#x absent from cluster %d", p, line, cl)
		}
		eff := l.State
		if l.Pending {
			eff = l.FillState
		}
		if eff == cache.Exclusive && st != cache.Exclusive {
			return fmt.Errorf("processor %d holds line %#x EXCLUSIVE but cluster %d is %v",
				p, line, cl, st)
		}
	}
	return nil
}

// CheckInvariants audits directory/attraction/private-cache agreement.
func (s *MemClusterSystem) CheckInvariants(now Clock) error {
	var err error
	s.dir.ForEach(func(line uint64, e directory.Entry) {
		if err != nil {
			return
		}
		for cl := 0; cl < s.numClusters; cl++ {
			if present := s.InCluster(cl, line); e.Has(cl) != present {
				err = fmt.Errorf("line %#x: directory bit %v but attraction presence %v in cluster %d",
					line, e.Has(cl), present, cl)
				return
			}
		}
		if e.State == directory.Exclusive && e.NumSharers() != 1 {
			err = fmt.Errorf("line %#x: EXCLUSIVE with %d sharers", line, e.NumSharers())
		}
	})
	if err != nil {
		return err
	}
	// Private caches only hold lines their cluster has, in a compatible
	// state.
	for p := range s.l1 {
		p := p
		cl := p / s.clusterSize
		s.l1[p].ForEach(func(l *cache.Line) {
			if err != nil {
				return
			}
			st := s.attraction[cl].Get(l.Tag)
			if st == cache.Invalid {
				err = fmt.Errorf("processor %d caches line %#x absent from cluster %d", p, l.Tag, cl)
				return
			}
			eff := l.State
			if l.Pending {
				eff = l.FillState
			}
			if eff == cache.Exclusive && st != cache.Exclusive {
				err = fmt.Errorf("processor %d holds line %#x EXCLUSIVE but cluster %d is %v",
					p, l.Tag, cl, st)
			}
		})
	}
	return err
}

// Interface conformance.
var (
	_ MemoryModel = (*System)(nil)
	_ MemoryModel = (*MemClusterSystem)(nil)
)
