package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"clustersim/internal/apps/registry"
	"clustersim/internal/coherence"
	"clustersim/internal/core"
	"clustersim/internal/critpath"
	"clustersim/internal/engine"
	"clustersim/internal/experiments"
	"clustersim/internal/memory"
	"clustersim/internal/obs"
	"clustersim/internal/perf"
	"clustersim/internal/profile"
	"clustersim/internal/telemetry"
	"clustersim/internal/trace"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Point  string `json:"point"`  // the point (or figure) the call served
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's origin
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
}

// newTracer starts a tracer whose span times count from now.
//
//simlint:allow wallclock — the benchmark measures host wall time
func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
//
//simlint:allow wallclock — the benchmark measures host wall time
func (t *tracer) begin(parent int, point, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Point: point, Name: name,
		Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

// end closes span id.
//
//simlint:allow wallclock — the benchmark measures host wall time
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// timed runs f inside a span and returns its wall seconds.
//
//simlint:allow wallclock — the benchmark measures host wall time
func (t *tracer) timed(parent int, point, name string, f func() error) (float64, error) {
	id := t.begin(parent, point, name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	t.end(id)
	return d, err
}

// spanDoc is the spans file the traced pass writes.
type spanDoc struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	host
	Spans []span `json:"spans"`
}

// write saves the spans, with the host record, as one JSON document.
func (t *tracer) write(path, workload string, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spanDoc{Schema: "clusterbench/spans/v1", Workload: workload, host: h, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// allocCounters are the runtime/metrics read around a pass.
var allocCounters = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// readAllocs samples allocCounters.
func readAllocs() [3]uint64 {
	s := make([]metrics.Sample, len(allocCounters))
	for i, n := range allocCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]uint64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// layerSplit accumulates the layer metrics over a workload's points.
type layerSplit struct {
	// Summed per-point medians and self times, in seconds.
	bareS, monS, appsS, engineS, cohS, harnessS, obsS, telS, profS, critS float64
	// Reference counts of the two replays, reported beside apps.refs.
	replayRefs, cohRefs uint64
	// perf.Monitor's handoffs, and its app, sched and coherence ns.
	handoffs uint64
	monPhase [3]int64
	counters coherenceCounts
	// The direct journal calls.
	storeS, loadS               float64
	stores, loads, journalBytes int
}

// coherenceCounts are the deterministic protocol counts of the results.
type coherenceCounts struct {
	refs, hits, readMisses, writeMisses, upgrades, merges uint64
	invalidations, writebacks, replacementHints           uint64
}

func (c *coherenceCounts) add(res *core.Result) {
	a := res.Aggregate().Counters
	c.refs += a.References()
	c.hits += a.ReadHits + a.WriteHits
	c.readMisses += a.ReadMisses
	c.writeMisses += a.WriteMisses
	c.upgrades += a.Upgrades
	c.merges += a.Merges + a.WriteMerges
	for _, cl := range res.Clusters {
		c.invalidations += cl.InvalidationsSent
		c.writebacks += cl.Writebacks
		c.replacementHints += cl.ReplacementHints
	}
}

// replayCoherence feeds a captured reference stream, in recorded order,
// straight into the memory system: the coherence layer's work for the
// point with the engine and the application taken away. Each
// processor's clock advances by its compute intervals and read stalls.
func replayCoherence(cfg core.Config, t *trace.Trace) (refs uint64, err error) {
	as, err := memory.New(cfg.PageBytes, cfg.NumClusters())
	if err != nil {
		return 0, err
	}
	as.SetPolicy(cfg.Placement)
	for _, r := range t.Regions {
		as.Alloc(r.Size, r.Name)
	}
	sys, err := coherence.NewSystemAssoc(as, cfg.NumClusters(), cfg.CacheLinesPerCluster(),
		cfg.Assoc, cfg.LineBytes, cfg.Latencies, cfg.Policy)
	if err != nil {
		return 0, err
	}
	clock := make([]int64, t.Procs)
	for _, ev := range t.Events {
		p := int(ev.Proc)
		switch ev.Kind {
		case core.EvRead:
			clock[p] += 1 + sys.Read(p, cfg.ClusterOf(p), ev.Arg, clock[p]).Stall
			refs++
		case core.EvWrite:
			sys.Write(p, cfg.ClusterOf(p), ev.Arg, clock[p])
			clock[p]++
			refs++
		case core.EvCompute:
			clock[p] += int64(ev.Arg)
		}
	}
	return refs, nil
}

// nsPerHandoff times a ring of 64 processing elements that each advance
// one cycle and yield, so every yield hands the token to the next
// element: the engine's cost per handoff with no application or memory
// system behind it. It returns the median of several rings.
func nsPerHandoff(tr *tracer) (float64, error) {
	const pes, rounds, repeats = 64, 2000, 5
	var ns []float64
	for i := 0; i < repeats; i++ {
		s := engine.NewScheduler(pes, 0)
		d, err := tr.timed(0, "ring", "engine.Scheduler.Run", func() error {
			return s.Run(func(pe *engine.PE) {
				for r := 0; r < rounds; r++ {
					pe.Advance(1)
					pe.Yield()
				}
			})
		})
		if err != nil {
			return 0, err
		}
		ns = append(ns, d*1e9/(pes*rounds))
	}
	return median(ns), nil
}

// Layer names of the ways probePoint runs a point; the spans carry them.
const (
	layerBare     = "apps.Runner.Run"
	layerMonitor  = "perf.Monitor"
	layerReplay   = "trace.Replay"
	layerCoh      = "coherence.System"
	layerSuite    = "experiments.Suite.Run"
	layerObs      = "obs.Sweep"
	layerTel      = "telemetry.Collector"
	layerProfile  = "profile.Collector"
	layerCritpath = "critpath.Analyzer"
)

// probePoint runs one point every way the layer split needs, repeats
// times, recording a span for each call under a root span named after
// the point, and adds the point's medians and self times to ls. memo is
// a plain suite that keeps the first Suite.Run of every point, for the
// render measurement.
func (ls *layerSplit) probePoint(p point, repeats int, memo *experiments.Suite, j *experiments.Journal, tr *tracer) error {
	name := p.name()
	root := tr.begin(0, name, "point")
	defer tr.end(root)
	w, err := registry.Lookup(p.App)
	if err != nil {
		return err
	}
	runWith := func(attach func(*core.Config)) func() error {
		return func() error {
			cfg := p.config()
			attach(&cfg)
			_, err := w.Run(cfg, size)
			return err
		}
	}

	// One capture of the point's reference stream serves every replay.
	col := trace.NewCollector(procs)
	if _, err := tr.timed(root, name, "trace.Collector", runWith(func(c *core.Config) { c.Tracer = col })); err != nil {
		return err
	}
	captured := col.Finish()

	var bare, replayed *core.Result
	var mon *perf.Monitor
	var cohRefs uint64
	suite := memo
	ways := []struct {
		layer string
		run   func() error
	}{
		{layerBare, func() (err error) { bare, err = w.Run(p.config(), size); return err }},
		{layerMonitor, runWith(func(c *core.Config) { mon = perf.New(); c.Perf = mon })},
		{layerReplay, func() (err error) { replayed, err = trace.Replay(p.config(), captured); return err }},
		{layerCoh, func() (err error) { cohRefs, err = replayCoherence(p.config(), captured); return err }},
		{layerSuite, func() error { _, err := suite.Run(p.App, p.Cluster, p.CacheKB); return err }},
		{layerObs, func() error {
			sw := obs.NewSweep("clusterbench", obs.NewRegistry(), obs.NewLog(nil, "clusterbench"))
			_, err := experiments.NewSuite(experiments.Options{Procs: procs, Size: size, Obs: sw}).
				Run(p.App, p.Cluster, p.CacheKB)
			return err
		}},
		{layerTel, runWith(func(c *core.Config) { c.Telemetry = telemetry.New(); c.SampleEvery = sampleEvery })},
		{layerProfile, runWith(func(c *core.Config) { c.Profile = profile.New() })},
		{layerCritpath, runWith(func(c *core.Config) { c.Critpath = critpath.New() })},
	}
	walls := map[string][]float64{}
	for i := 0; i < repeats; i++ {
		for _, way := range ways {
			d, err := tr.timed(root, name, way.layer, way.run)
			if err != nil {
				return err
			}
			walls[way.layer] = append(walls[way.layer], d)
		}
		if i == 0 {
			ls.replayRefs += replayed.Aggregate().Counters.References()
			ls.cohRefs += cohRefs
			ls.counters.add(bare)
			ls.handoffs += mon.Transitions(perf.PhaseSched)
			ls.monPhase[0] += mon.PhaseNS(perf.PhaseApp)
			ls.monPhase[1] += mon.PhaseNS(perf.PhaseSched)
			ls.monPhase[2] += mon.PhaseNS(perf.PhaseCoherence)
		}
		// Later repeats need a fresh point, so a suite of their own.
		suite = newPlainSuite()
	}

	ls.bareS += median(walls[layerBare])
	ls.monS += median(walls[layerMonitor])
	ls.appsS += selfTime(walls[layerBare], walls[layerReplay])
	ls.engineS += selfTime(walls[layerReplay], walls[layerCoh])
	ls.cohS += median(walls[layerCoh])
	ls.harnessS += selfTime(walls[layerSuite], walls[layerBare])
	ls.obsS += selfTime(walls[layerObs], walls[layerSuite])
	ls.telS += selfTime(walls[layerTel], walls[layerBare])
	ls.profS += selfTime(walls[layerProfile], walls[layerBare])
	ls.critS += selfTime(walls[layerCritpath], walls[layerBare])

	// The journal's own cost for this point's record: a direct store
	// into a scratch journal, then a load of it back.
	hash, err := telemetry.HashConfig(p.config())
	if err != nil {
		return err
	}
	rec := experiments.PointRecord{App: p.App, Size: size.String(), ClusterSize: p.Cluster,
		CacheKB: p.CacheKB, ConfigHash: hash, Result: bare}
	d, err := tr.timed(root, name, "experiments.Journal.Store", func() error { return j.Store(rec) })
	if err != nil {
		return err
	}
	ls.storeS += d
	ls.stores++
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	ls.journalBytes += len(b) + 1 // the store encodes one line
	d, err = tr.timed(root, name, "experiments.Journal.Load", func() error {
		_, ok, err := j.Load(p.App, size.String(), p.Cluster, p.CacheKB, hash)
		if err == nil && !ok {
			err = fmt.Errorf("journal: %s stored but not loadable", name)
		}
		return err
	})
	if err != nil {
		return err
	}
	ls.loadS += d
	ls.loads++
	return nil
}
