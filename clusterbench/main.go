// Command clusterbench is the repository's benchmark. It drives three
// closed-loop workloads through the simulator's public API — single
// Figure 2 points with nothing attached, the Figures 4-8 sweep run cold
// as a production sweep, and the same sweep replayed from a journal —
// checks every simulated result against checked-in golden digests, and
// prints the end-to-end metrics. With -trace 1 it instead runs a traced
// pass that splits each point's host time across the simulator's
// layers by timing calls into them from outside.
//
// Run it from the repository root:
//
//	bash clusterbench/run.sh --workload fig2-points --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"clustersim/internal/experiments"
	"clustersim/internal/perf"
)

// setupRepeats is how many times a measured run sets up, so setup_s is
// a median.
const setupRepeats = 3

// host is the record every output carries.
type host struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
}

func readHost(seed int64) host {
	h := perf.ReadHost()
	return host{GoVersion: h.GoVersion, GOOS: h.GOOS, GOARCH: h.GOARCH, NumCPU: h.NumCPU,
		GOMAXPROCS: h.GOMAXPROCS, Seed: seed}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints metrics as they are added and keeps them for the
// result line.
type report struct {
	w io.Writer
	m map[string]metric
}

func (r *report) add(name string, v float64, unit string) {
	if r.m == nil {
		r.m = map[string]metric{}
	}
	r.m[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "  %-28s %16.6g %s\n", name, v, unit)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit code.
//
//simlint:allow rand — the seed is the --seed argument and orders requests only
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig2-points, finite-sweep or finite-replay")
	seed := fs.Int64("seed", 1, "seed of the request order")
	seconds := fs.Int("seconds", 20, "how long a measured run measures")
	traced := fs.Int("trace", 0, "1 runs the traced layer split instead of the measured run")
	work := fs.String("work", filepath.Join(".bench_build", "clusterbench-work"), "scratch directory for journals, sweep outputs and spans")
	golden := fs.String("write-golden", "", "simulate every point once, unmeasured, and rewrite the goldens in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(stderr, "clusterbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "clusterbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name, *work)
	if err != nil {
		fmt.Fprintln(stderr, "clusterbench:", err)
		return 2
	}
	chk, err := newChecker()
	if err != nil {
		fmt.Fprintln(stderr, "clusterbench:", err)
		return 1
	}
	// GOMAXPROCS is the benchmark's to pin, never a program option.
	runtime.GOMAXPROCS(w.maxprocs)
	h := readHost(*seed)
	fmt.Fprintf(stdout, "clusterbench %s: %s %s/%s nproc=%d gomaxprocs=%d seed=%d\n",
		w.name, h.GoVersion, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.Seed)
	defer w.cleanup()
	rng := rand.New(rand.NewSource(*seed))
	rep := &report{w: stdout}
	if *traced == 1 {
		err = tracedRun(w, rng, chk, rep, h, filepath.Join(*work, "spans-"+w.name+".json"))
	} else {
		err = measuredRun(w, time.Duration(*seconds)*time.Second, rng, chk, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "clusterbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "  %-28s %16.6g ratio (%d of %d points)\n", "failed_frac", chk.tally.frac(),
		chk.tally.failed, chk.tally.attempted)
	for _, e := range chk.errs {
		fmt.Fprintln(stdout, "  FAIL", e)
	}
	res := result{Correct: chk.tally.failed == 0 && chk.tally.attempted > 0, Attempted: chk.tally.attempted,
		Failed: chk.tally.failed, Metrics: rep.m}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "clusterbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// resetPeakRSS returns freed memory to the operating system and resets
// the process's resident-memory high-water mark, so the next
// peakRSSMiB reads the peak of what ran in between. Linux only.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-memory high-water mark (VmHWM) since
// the last resetPeakRSS.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v) // "<n> kB"
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected %q in /proc/self/status", line)
			}
			kib, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// setUp runs the workload's set-up n times and returns each wall time.
//
//simlint:allow wallclock — the benchmark measures host wall time
func setUp(w *workload, n int) ([]float64, error) {
	var s []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s = append(s, time.Since(t0).Seconds())
	}
	return s, nil
}

// measuredRun repeats untraced passes for at least d (and at least the
// workload's minimum), checking each, and reports the end-to-end
// metrics.
//
//simlint:allow wallclock — the benchmark measures host wall time
func measuredRun(w *workload, d time.Duration, rng *rand.Rand, chk *checker, rep *report) error {
	setups, err := setUp(w, setupRepeats)
	if err != nil {
		return err
	}
	var walls, pointMS, rss []float64
	var points int
	var refs uint64
	start := time.Now()
	for len(walls) < w.minPasses || time.Since(start) < d {
		o := w.permute(rng)
		if err := resetPeakRSS(); err != nil {
			return fmt.Errorf("resetting peak RSS: %w", err)
		}
		r, err := w.pass(o, nil)
		if err != nil {
			return err
		}
		peak, err := peakRSSMiB()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		chk.checkPass(r)
		walls = append(walls, r.wall.Seconds())
		for _, pr := range r.points {
			pointMS = append(pointMS, float64(pr.wall)/1e6)
		}
		points, refs = len(r.points), r.refs()
	}
	wall := median(walls)
	tail, ok := tailPercentile(len(pointMS))
	if !ok || tail < 90 {
		return fmt.Errorf("%d point samples leave fewer than %d beyond p90", len(pointMS), minBeyond)
	}
	fmt.Fprintf(rep.w, "  %d passes of %d points; %d point samples, tail percentile with %d beyond: p%g\n",
		len(walls), points, len(pointMS), minBeyond, tail)
	fmt.Fprintf(rep.w, "  pass wall (s): %s\n  pass peak RSS (MiB): %s\n", summary(walls), summary(rss))
	rep.add("setup_s", median(setups), "s")
	rep.add("wall_s", wall, "s")
	rep.add("points_per_s", float64(points)/wall, "1/s")
	rep.add("refs_per_s", float64(refs)/wall, "1/s")
	rep.add("point_ms_p50", median(pointMS), "ms")
	rep.add("point_ms_p90", quantile(pointMS, 0.9), "ms")
	rep.add("max_rss_mb", median(rss), "MiB")
	return nil
}

// timedPasses runs passes in one order until at least a second has
// gone, checking each. It returns the median pass wall and the mean
// runtime/metrics deltas of a pass, checks excluded.
//
//simlint:allow wallclock — the benchmark measures host wall time
func timedPasses(w *workload, o order, tr *tracer, chk *checker) (wall float64, allocs [3]float64, err error) {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < time.Second {
		before := readAllocs()
		r, err := w.pass(o, tr)
		after := readAllocs()
		if err != nil {
			return 0, allocs, err
		}
		for i := range allocs {
			allocs[i] += float64(after[i] - before[i])
		}
		chk.checkPass(r)
		walls = append(walls, r.wall.Seconds())
	}
	for i := range allocs {
		allocs[i] /= float64(len(walls))
	}
	return median(walls), allocs, nil
}

// tracedRun sets up once, times an untraced and a traced pass over the
// same order, then splits each point's host time across the layers.
func tracedRun(w *workload, rng *rand.Rand, chk *checker, rep *report, h host, spansPath string) error {
	if _, err := setUp(w, 1); err != nil {
		return err
	}
	o := w.permute(rng)
	untraced, allocs, err := timedPasses(w, o, nil, chk)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, _, err := timedPasses(w, o, tr, chk)
	if err != nil {
		return err
	}

	var ls layerSplit
	dir := filepath.Join(filepath.Dir(spansPath), "probe-journal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := experiments.OpenJournal(dir)
	if err != nil {
		return err
	}
	memo := newPlainSuite()
	memo.Opt.Out = io.Discard
	for _, p := range o.points {
		if err := ls.probePoint(p, w.probeRepeats, memo, j, tr); err != nil {
			return fmt.Errorf("%s: %w", p.name(), err)
		}
	}
	renderS, err := tr.timed(0, "render", "experiments.render", func() error {
		if len(w.figures) == 0 {
			return memo.PrintFig2()
		}
		_, err := renderFigures(memo, w.figures)
		return err
	})
	if err != nil {
		return err
	}
	nsHandoff, err := nsPerHandoff(tr)
	if err != nil {
		return err
	}
	if err := tr.write(spansPath, w.name, h); err != nil {
		return err
	}
	fmt.Fprintf(rep.w, "  spans: %d written to %s\n", len(tr.spans), spansPath)

	rep.add("apps.self_s", ls.appsS, "s")
	rep.add("apps.refs", float64(ls.counters.refs), "count")
	fmt.Fprintf(rep.w, "    (base: bare run %d refs measured; trace.Replay %d refs including set-up; coherence replay %d refs)\n",
		ls.counters.refs, ls.replayRefs, ls.cohRefs)
	rep.add("engine.self_s", ls.engineS, "s")
	fmt.Fprintf(rep.w, "    (trace.Replay minus the direct coherence replay: engine plus core.Proc dispatch)\n")
	rep.add("engine.handoffs", float64(ls.handoffs), "count")
	rep.add("engine.handoffs_per_ref", float64(ls.handoffs)/float64(ls.counters.refs), "ratio")
	rep.add("engine.ns_per_handoff", nsHandoff, "ns")
	rep.add("coherence.self_s", ls.cohS, "s")
	rep.add("coherence.ns_per_ref", ls.cohS*1e9/float64(ls.cohRefs), "ns")
	c := ls.counters
	rep.add("coherence.read_misses", float64(c.readMisses), "count")
	rep.add("coherence.write_misses", float64(c.writeMisses), "count")
	rep.add("coherence.upgrades", float64(c.upgrades), "count")
	rep.add("coherence.merges", float64(c.merges), "count")
	rep.add("coherence.invalidations", float64(c.invalidations), "count")
	rep.add("coherence.writebacks", float64(c.writebacks), "count")
	rep.add("coherence.replacement_hints", float64(c.replacementHints), "count")
	rep.add("cache.hit_ratio", float64(c.hits)/float64(c.refs), "ratio")
	rep.add("experiments.harness_s", ls.harnessS, "s")
	rep.add("journal.store_s", ls.storeS, "s")
	rep.add("journal.stores", float64(ls.stores), "count")
	rep.add("journal.bytes", float64(ls.journalBytes), "bytes")
	rep.add("journal.load_s", ls.loadS, "s")
	rep.add("journal.loads", float64(ls.loads), "count")
	rep.add("experiments.render_s", renderS, "s")
	rep.add("telemetry.self_s", ls.telS, "s")
	rep.add("profile.self_s", ls.profS, "s")
	rep.add("critpath.self_s", ls.critS, "s")
	rep.add("obs.self_s", ls.obsS, "s")
	rep.add("runtime.allocs", allocs[0], "count")
	rep.add("runtime.alloc_bytes", allocs[1], "bytes")
	rep.add("runtime.gc_cycles", allocs[2], "count")
	rep.add("trace.overhead_frac", traced/untraced-1, "ratio")
	rep.add("perf.overhead_frac", ls.monS/ls.bareS-1, "ratio")

	// The monitor's own attribution beside the outside-in split, both as
	// shares of the point's host time.
	monTotal := float64(ls.monPhase[0] + ls.monPhase[1] + ls.monPhase[2])
	fmt.Fprintf(rep.w, "  shares of point host time      %10s %10s %10s\n", "app", "engine", "coherence")
	fmt.Fprintf(rep.w, "    perf.Monitor (monitored)     %9.1f%% %9.1f%% %9.1f%%\n",
		100*float64(ls.monPhase[0])/monTotal, 100*float64(ls.monPhase[1])/monTotal, 100*float64(ls.monPhase[2])/monTotal)
	fmt.Fprintf(rep.w, "    outside-in (bare)            %9.1f%% %9.1f%% %9.1f%%\n",
		100*ls.appsS/ls.bareS, 100*ls.engineS/ls.bareS, 100*ls.cohS/ls.bareS)
	return nil
}
