package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/apps/registry"
	"clustersim/internal/core"
	"clustersim/internal/experiments"
	"clustersim/internal/obs"
)

// The simulated machine and problem size every workload runs at.
const (
	procs = 64
	size  = apps.SizeTest
	// sampleEvery is the production sweep's telemetry sampling grid,
	// in simulated cycles.
	sampleEvery = 5000
)

// point is one simulation point: an application on one machine
// configuration.
type point struct {
	App     string
	Cluster int
	CacheKB int // 0 = infinite
}

// name is the point's identity, the same app-cN-cache stem the
// experiments package gives its events and artifact files.
func (p point) name() string {
	cache := "inf"
	if p.CacheKB != 0 {
		cache = fmt.Sprintf("%dk", p.CacheKB)
	}
	return fmt.Sprintf("%s-c%d-%s", p.App, p.Cluster, cache)
}

// config is the point's machine, built as experiments.Options builds
// it, so a bare run and a suite run of one point share a config hash.
func (p point) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Procs = procs
	cfg.ClusterSize = p.Cluster
	cfg.CacheKBPerProc = p.CacheKB
	return cfg
}

// fig2Points is the Figure 2 matrix: every application with infinite
// caches at every cluster size.
func fig2Points() []point {
	var out []point
	for _, app := range experiments.Fig2Apps {
		for _, cs := range experiments.ClusterSizes {
			out = append(out, point{App: app, Cluster: cs})
		}
	}
	return out
}

// finiteFigures are Figures 4-8 in figure order.
//
//simlint:allow maprange — sorted before use
func finiteFigures() []int {
	var figs []int
	for fig := range experiments.FiniteFigures {
		figs = append(figs, fig)
	}
	sort.Ints(figs)
	return figs
}

func figureApp(fig int) string { return experiments.FiniteFigures[fig] }

// finitePoints is the Figures 4-8 matrix: five applications at every
// cache size and cluster size.
func finitePoints() []point {
	var out []point
	for _, fig := range finiteFigures() {
		for _, kb := range experiments.FiniteCachesKB {
			for _, cs := range experiments.ClusterSizes {
				out = append(out, point{App: figureApp(fig), Cluster: cs, CacheKB: kb})
			}
		}
	}
	return out
}

// runBare runs one point through the registry with nothing attached.
func runBare(p point) (*core.Result, error) {
	w, err := registry.Lookup(p.App)
	if err != nil {
		return nil, err
	}
	return w.Run(p.config(), size)
}

// pointRun is one point as a pass saw it.
type pointRun struct {
	pt   point
	wall time.Duration
	res  *core.Result
	err  error
}

// passResult is one pass over a workload's fixed work.
type passResult struct {
	wall    time.Duration
	points  []pointRun
	figures map[int]string // rendered finite figures, by number
}

// refs sums the simulated shared-memory references of the pass's
// results.
func (r *passResult) refs() uint64 {
	var n uint64
	for _, pr := range r.points {
		if pr.res != nil {
			n += pr.res.Aggregate().Counters.References()
		}
	}
	return n
}

// order is one pass's request order, drawn from the seed.
type order struct {
	points  []point
	figures []int
}

// workload is one closed-loop benchmark workload: one caller requests
// one point at a time.
type workload struct {
	name string
	// maxprocs is the GOMAXPROCS the workload runs at.
	maxprocs int
	points   []point
	figures  []int
	// minPasses is the fewest passes a measured run makes.
	minPasses int
	// probeRepeats is how many times the traced layer split runs each
	// point one way; its self times are medians over the repeats.
	probeRepeats int
	// setup prepares the workload; it may run several times, and the
	// last set-up is the one passes use.
	setup func() error
	// pass runs the fixed work once in the given order, recording one
	// span per layer call into tr (nil records nothing).
	pass func(o order, tr *tracer) (*passResult, error)
	// cleanup removes what set-up left on disk.
	cleanup func()
}

// permute draws a pass's request order: the seed permutes only the
// order in which points and figures are requested, never what they
// compute.
func (w *workload) permute(rng *rand.Rand) order {
	o := order{points: make([]point, len(w.points)), figures: append([]int(nil), w.figures...)}
	for i, j := range rng.Perm(len(w.points)) {
		o.points[i] = w.points[j]
	}
	rng.Shuffle(len(o.figures), func(i, j int) { o.figures[i], o.figures[j] = o.figures[j], o.figures[i] })
	return o
}

// workloads returns the benchmark's workloads. work is a scratch
// directory the finite workloads keep their journals in.
func workloads(work string) []*workload {
	ws := []*workload{fig2Workload(), finiteSweepWorkload(work), finiteReplayWorkload(work)}
	for _, w := range ws {
		// Enough passes that p90 has ten samples beyond it.
		w.minPasses = (samplesFor(90) + len(w.points) - 1) / len(w.points)
	}
	return ws
}

func findWorkload(name, work string) (*workload, error) {
	var names []string
	for _, w := range workloads(work) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fig2Workload times single points with nothing attached: the
// Figure 2 matrix through apps.Runner.Run at GOMAXPROCS=1.
//
//simlint:allow wallclock — the benchmark measures host wall time
func fig2Workload() *workload {
	w := &workload{name: "fig2-points", maxprocs: 1, points: fig2Points(),
		probeRepeats: 2, cleanup: func() {}}
	runners := map[string]apps.Runner{}
	w.setup = func() error {
		for _, app := range experiments.Fig2Apps {
			r, err := registry.Lookup(app)
			if err != nil {
				return err
			}
			runners[app] = r
			// Warm-up: one point per application, so the heap has
			// grown before timing starts.
			if _, err := r.Run(point{App: app, Cluster: 1}.config(), size); err != nil {
				return fmt.Errorf("warm-up %s: %w", app, err)
			}
		}
		return nil
	}
	w.pass = func(o order, tr *tracer) (*passResult, error) {
		r := &passResult{}
		start := time.Now()
		for _, p := range o.points {
			span := tr.begin(0, p.name(), "apps.Runner.Run")
			t0 := time.Now()
			res, err := runners[p.App].Run(p.config(), size)
			r.points = append(r.points, pointRun{pt: p, wall: time.Since(t0), res: res, err: err})
			tr.end(span)
		}
		r.wall = time.Since(start)
		return r, nil
	}
	return w
}

// newPlainSuite is a suite with no journal and nothing attached.
func newPlainSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.Options{Procs: procs, Size: size})
}

// renderFigures prints each figure through Suite.PrintFigFinite into
// its own buffer, so figures requested in any order compare with the
// golden text figure by figure.
func renderFigures(s *experiments.Suite, figs []int) (map[int]string, error) {
	out := map[int]string{}
	saved := s.Opt.Out
	defer func() { s.Opt.Out = saved }()
	for _, fig := range figs {
		var b bytes.Buffer
		s.Opt.Out = &b
		if err := s.PrintFigFinite(fig); err != nil {
			return nil, err
		}
		out[fig] = b.String()
	}
	return out, nil
}

// sweepDirs are the on-disk state of one production sweep.
type sweepDirs struct {
	journal, out string
}

// reset empties dirs; with keepJournal the journal survives.
func (d sweepDirs) reset(keepJournal bool) error {
	if !keepJournal {
		if err := os.RemoveAll(d.journal); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(d.out); err != nil {
		return err
	}
	return os.MkdirAll(d.out, 0o755)
}

// productionSuite builds the suite a recorded, explained production
// sweep runs: a journal, an obs.Sweep with a registry and an event log,
// telemetry sampling, the sharing profiler and the critpath analyzer.
// finish closes the sweep and its event log.
func productionSuite(d sweepDirs, points int) (s *experiments.Suite, finish func() error, err error) {
	j, err := experiments.OpenJournal(d.journal)
	if err != nil {
		return nil, nil, err
	}
	log, err := obs.OpenLog(filepath.Join(d.out, "events.jsonl"), "clusterbench")
	if err != nil {
		return nil, nil, err
	}
	sw := obs.NewSweep("clusterbench", obs.NewRegistry(), log)
	sw.SetTotalPoints(points)
	s = experiments.NewSuite(experiments.Options{
		Procs:       procs,
		Size:        size,
		Journal:     j,
		Obs:         sw,
		SampleEvery: sampleEvery,
		ProfileDir:  filepath.Join(d.out, "profile"),
		CritpathDir: filepath.Join(d.out, "critpath"),
	})
	return s, func() error {
		sw.Finish(0)
		return log.Close()
	}, nil
}

// suitePass requests every point through s.Run, then renders the
// figures from the memoized suite.
//
//simlint:allow wallclock — the benchmark measures host wall time
func suitePass(s *experiments.Suite, o order, tr *tracer) (*passResult, error) {
	r := &passResult{}
	for _, p := range o.points {
		span := tr.begin(0, p.name(), "experiments.Suite.Run")
		t0 := time.Now()
		res, err := s.Run(p.App, p.Cluster, p.CacheKB)
		r.points = append(r.points, pointRun{pt: p, wall: time.Since(t0), res: res, err: err})
		tr.end(span)
	}
	figs := map[int]string{}
	for _, fig := range o.figures {
		span := tr.begin(0, fmt.Sprintf("figure-%d", fig), "experiments.Suite.PrintFigFinite")
		text, err := renderFigures(s, []int{fig})
		tr.end(span)
		if err != nil {
			return nil, err
		}
		figs[fig] = text[fig]
	}
	r.figures = figs
	return r, nil
}

// finitePass runs one production sweep pass over dirs. replay says
// whether the journal must serve every point or none of them.
//
//simlint:allow wallclock — the benchmark measures host wall time
func finitePass(d sweepDirs, replay bool, o order, tr *tracer) (*passResult, error) {
	start := time.Now()
	s, finish, err := productionSuite(d, len(o.points))
	if err != nil {
		return nil, err
	}
	r, err := suitePass(s, o, tr)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	want := 0
	if replay {
		want = len(o.points)
	}
	if s.Replayed() != want {
		return nil, fmt.Errorf("the journal served %d of %d points; want %d", s.Replayed(), len(o.points), want)
	}
	return r, nil
}

// warmFinite runs one bare point of each finite application.
func warmFinite() error {
	for _, fig := range finiteFigures() {
		if _, err := runBare(point{App: figureApp(fig), Cluster: 1, CacheKB: 4}); err != nil {
			return fmt.Errorf("warm-up %s: %w", figureApp(fig), err)
		}
	}
	return nil
}

// finiteSweepWorkload runs the Figures 4-8 sweep cold, from an empty
// journal each pass, as a production sweep on every core.
func finiteSweepWorkload(work string) *workload {
	d := sweepDirs{journal: filepath.Join(work, "sweep", "journal"), out: filepath.Join(work, "sweep", "out")}
	w := &workload{name: "finite-sweep", maxprocs: runtime.NumCPU(), points: finitePoints(),
		figures: finiteFigures(), probeRepeats: 1}
	w.setup = func() error {
		if err := d.reset(false); err != nil {
			return err
		}
		return warmFinite()
	}
	w.pass = func(o order, tr *tracer) (*passResult, error) {
		// Emptying the journal is not part of the timed work.
		if err := d.reset(false); err != nil {
			return nil, err
		}
		return finitePass(d, false, o, tr)
	}
	w.cleanup = func() { os.RemoveAll(filepath.Join(work, "sweep")) }
	return w
}

// finiteReplayWorkload serves the same sweep from a journal set-up
// filled: a production sweep that replays every point.
func finiteReplayWorkload(work string) *workload {
	d := sweepDirs{journal: filepath.Join(work, "replay", "journal"), out: filepath.Join(work, "replay", "out")}
	w := &workload{name: "finite-replay", maxprocs: runtime.NumCPU(), points: finitePoints(),
		figures: finiteFigures(), probeRepeats: 1}
	w.setup = func() error {
		if err := d.reset(false); err != nil {
			return err
		}
		j, err := experiments.OpenJournal(d.journal)
		if err != nil {
			return err
		}
		s := experiments.NewSuite(experiments.Options{Procs: procs, Size: size, Journal: j})
		for _, p := range w.points {
			if _, err := s.Run(p.App, p.Cluster, p.CacheKB); err != nil {
				return fmt.Errorf("filling the journal: %w", err)
			}
		}
		return nil
	}
	w.pass = func(o order, tr *tracer) (*passResult, error) {
		if err := d.reset(true); err != nil {
			return nil, err
		}
		return finitePass(d, true, o, tr)
	}
	w.cleanup = func() { os.RemoveAll(filepath.Join(work, "replay")) }
	return w
}
