package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 75, true},
		{100, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
	if n := samplesFor(90); n != 100 {
		t.Errorf("samplesFor(90) = %d, want 100", n)
	}
	for _, w := range workloads(t.TempDir()) {
		if got := w.minPasses * len(w.points); got < samplesFor(90) {
			t.Errorf("%s: %d passes of %d points leave p90 fewer than %d samples beyond", w.name, w.minPasses, len(w.points), minBeyond)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %g, want 3", m)
	}
	if q := quantile(xs, 0.9); q != 4.6 {
		t.Errorf("p90 = %g, want 4.6", q)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	// Medians are subtracted, so one outlier repeat moves nothing.
	if got := selfTime([]float64{3, 2, 100}, []float64{1, 1, 0.5}); got != 2 {
		t.Errorf("selfTime = %g, want 2", got)
	}
	// A layer cheaper than the noise reads negative, as measured.
	if got := selfTime([]float64{1.0}, []float64{1.25}); got != -0.25 {
		t.Errorf("selfTime = %g, want -0.25 (not clamped)", got)
	}
}

func TestFailedFracAccounting(t *testing.T) {
	chk, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	good := point{App: "volrend", Cluster: 1, CacheKB: 4}
	res, err := runBare(good)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := runBare(good)
	if err != nil {
		t.Fatal(err)
	}
	changed.ExecTime++
	other := point{App: "mp3d", Cluster: 2}
	otherRes, err := runBare(other)
	if err != nil {
		t.Fatal(err)
	}

	chk.checkPass(&passResult{points: []pointRun{
		{pt: good, res: res},
		{pt: good, res: changed},                     // digest mismatch
		{pt: good, err: errors.New("verify failed")}, // errored or failed its own verify
		{pt: other, res: otherRes},
	}})
	if chk.tally.attempted != 4 || chk.tally.failed != 2 || chk.tally.frac() != 0.5 {
		t.Fatalf("tally %+v frac %g; want 2 of 4 failed", chk.tally, chk.tally.frac())
	}

	// A figure that renders differently fails every point of its
	// application in the pass, and only those.
	chk.checkPass(&passResult{
		points:  []pointRun{{pt: good, res: res}, {pt: other, res: otherRes}},
		figures: map[int]string{8: "Figure 8: not the golden text\n"},
	})
	if chk.tally.attempted != 6 || chk.tally.failed != 3 {
		t.Fatalf("after a figure mismatch: tally %+v; want 3 of 6 failed", chk.tally)
	}
	if (tally{}).frac() != 0 {
		t.Error("an empty tally must report 0")
	}
}

func TestGoldensCoverEveryPoint(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads(t.TempDir()) {
		for _, p := range w.points {
			if _, ok := golden[p.name()]; !ok {
				t.Errorf("%s: no golden for %s", w.name, p.name())
			}
		}
	}
	figs := splitFigures(goldenFigures)
	for _, fig := range finiteFigures() {
		if !strings.HasPrefix(figs[fig], "Figure ") || !strings.Contains(figs[fig], figureApp(fig)) {
			t.Errorf("figure %d golden text missing or wrong: %q", fig, figs[fig])
		}
	}
}

// TestSeedsPermuteOnly runs a small sweep through the production suite
// in two seeds' request orders: the orders differ, the digests do not.
//
//simlint:allow rand — each seed is one of the test's two constants
func TestSeedsPermuteOnly(t *testing.T) {
	w := &workload{points: []point{
		{App: "volrend", Cluster: 1, CacheKB: 4}, {App: "volrend", Cluster: 2, CacheKB: 4},
		{App: "mp3d", Cluster: 1}, {App: "mp3d", Cluster: 4, CacheKB: 16},
	}}
	digests := func(seed int64) ([]string, map[string]digest) {
		dir := t.TempDir()
		d := sweepDirs{journal: dir + "/journal", out: dir + "/out"}
		if err := d.reset(false); err != nil {
			t.Fatal(err)
		}
		o := w.permute(rand.New(rand.NewSource(seed)))
		r, err := finitePass(d, false, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		out := map[string]digest{}
		for _, pr := range r.points {
			if pr.err != nil {
				t.Fatal(pr.err)
			}
			names = append(names, pr.pt.name())
			if out[pr.pt.name()], err = digestOf(pr.res); err != nil {
				t.Fatal(err)
			}
		}
		return names, out
	}
	order1, d1 := digests(1)
	order2, d2 := digests(2)
	if reflect.DeepEqual(order1, order2) {
		t.Fatalf("seeds 1 and 2 requested the same order %v", order1)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("digests differ between seeds:\n%v\n%v", d1, d2)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range d1 {
		if golden[name] != d {
			t.Errorf("%s: digest %v, golden %v", name, d, golden[name])
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// lastResult parses the JSON object on the last line of out.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r
}

// metricNames lists a result's metrics, sorted.
//
//simlint:allow maprange — sorted before use
func metricNames(r result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sorted(s []string) []string {
	s = append([]string(nil), s...)
	sort.Strings(s)
	return s
}

// TestSmoke runs every workload for one second through the command's
// entry point and checks the result line against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, _ := benchmarkMetrics(t)
	for _, w := range workloads(t.TempDir()) {
		t.Run(w.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := realMain([]string{"--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", "0",
				"--work", t.TempDir()}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
			}
			r := lastResult(t, out.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < samplesFor(90) {
				t.Errorf("result %+v", r)
			}
			if got := metricNames(r); !reflect.DeepEqual(got, sorted(endToEnd)) {
				t.Errorf("metrics %v, BENCHMARK.json declares %v", got, sorted(endToEnd))
			}
			for _, want := range []string{"gomaxprocs=", "nproc=", "seed=7", "failed_frac", "point samples"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q", want)
				}
			}
		})
	}
}

// TestTracedSmoke runs the traced layer split on a two-point workload
// and checks it reports every per-layer metric BENCHMARK.json declares
// and writes its spans.
func TestTracedSmoke(t *testing.T) {
	_, perLayer := benchmarkMetrics(t)
	w := fig2Workload()
	w.points = []point{{App: "volrend", Cluster: 1}, {App: "mp3d", Cluster: 2}}
	w.probeRepeats = 1
	chk, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rep := &report{w: &out}
	spans := t.TempDir() + "/spans.json"
	if err := tracedRun(w, rand.New(rand.NewSource(1)), chk, rep, readHost(1), spans); err != nil {
		t.Fatal(err)
	}
	if got := metricNames(result{Metrics: rep.m}); !reflect.DeepEqual(got, sorted(perLayer)) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, sorted(perLayer))
	}
	if chk.tally.failed != 0 {
		t.Errorf("traced run failed points: %v", chk.errs)
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc spanDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	byPoint := map[string]map[string]bool{}
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if byPoint[s.Point] == nil {
			byPoint[s.Point] = map[string]bool{}
		}
		byPoint[s.Point][s.Name] = true
	}
	for _, p := range w.points {
		for _, layer := range []string{"apps.Runner.Run", "trace.Replay", "coherence.System", "perf.Monitor",
			"experiments.Suite.Run", "telemetry.Collector", "experiments.Journal.Store"} {
			if !byPoint[p.name()][layer] {
				t.Errorf("%s: no %s span", p.name(), layer)
			}
		}
	}
	if doc.Seed != 1 || doc.GOMAXPROCS == 0 || doc.GoVersion == "" {
		t.Errorf("spans file lacks the host record: %+v", doc.host)
	}
}
