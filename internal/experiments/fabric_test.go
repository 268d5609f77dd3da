package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/apps"
	"clustersim/internal/core"
	"clustersim/internal/fabric"
	"clustersim/internal/obs"
	"clustersim/internal/obs/fleet"
)

func fabricOpt() Options {
	return Options{Procs: 8, Size: apps.SizeTest, Out: io.Discard}
}

// TestPlanPointsMatchesSuiteDemand pins that PlanPoints enumerates
// exactly the points the memoizing suite simulates on demand: plan
// table7, run table7 locally, and require the journal to replay every
// point of a second render with zero fresh simulations.
func TestPlanPointsMatchesSuiteDemand(t *testing.T) {
	opt := fabricOpt()
	specs, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatalf("PlanPoints: %v", err)
	}
	// table7: ocean and lu at (1,inf) plus every cluster size — the
	// base point is part of the sweep, so 2 apps × 4 sizes.
	if len(specs) != 2*len(ClusterSizes) {
		t.Fatalf("planned %d points, want %d", len(specs), 2*len(ClusterSizes))
	}

	// Execute the plan via the runner (as a worker would), into a journal.
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := FabricRunner(j, 0, nil, nil)
	for _, spec := range specs {
		if _, resumed, err := run(spec); err != nil || resumed {
			t.Fatalf("run %s: resumed=%v err=%v", spec.Name(), resumed, err)
		}
	}

	// The rendering pass must find every point already journalled.
	opt.Journal = j
	s := NewSuite(opt)
	if err := s.PrintTable7(); err != nil {
		t.Fatalf("PrintTable7: %v", err)
	}
	if s.Fresh() != 0 {
		t.Fatalf("rendering simulated %d fresh points; the plan missed them", s.Fresh())
	}
	if s.Replayed() != len(specs) {
		t.Fatalf("replayed %d points, want %d", s.Replayed(), len(specs))
	}
}

// TestPlanPointsDedupsAcrossExperiments pins de-duplication: table5 and
// table7 share the unclustered infinite-cache points.
func TestPlanPointsDedupsAcrossExperiments(t *testing.T) {
	opt := fabricOpt()
	t7, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	both, err := PlanPoints([]string{"table7", "table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != len(t7) {
		t.Fatalf("repeating an experiment added points: %d vs %d", len(both), len(t7))
	}
	seen := map[string]bool{}
	for _, s := range t7 {
		if seen[s.Key()] {
			t.Fatalf("duplicate spec %s", s.Key())
		}
		seen[s.Key()] = true
	}
}

// TestFabricRunnerRejectsHashMismatch pins the fleet-skew guard: a spec
// whose config hash does not match what this binary derives is refused.
func TestFabricRunnerRejectsHashMismatch(t *testing.T) {
	opt := fabricOpt()
	specs, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	spec.ConfigHash = "0000deadbeef"
	if _, _, err := FabricRunner(nil, 0, nil, nil)(spec); err == nil {
		t.Fatal("a hash-mismatched spec must be refused")
	}
}

// TestDistributedSweepByteIdentical is the keystone proof: a table-7
// sweep distributed over the simulated network — under message chaos,
// with a worker crash mid-sweep and a journal-backed restart — renders
// byte-for-byte the same table as a plain local run, with the rendering
// pass replaying every point from the coordinator's journal.
func TestDistributedSweepByteIdentical(t *testing.T) {
	// Golden: the plain local suite.
	var local bytes.Buffer
	lopt := fabricOpt()
	lopt.Out = &local
	if err := NewSuite(lopt).PrintTable7(); err != nil {
		t.Fatalf("local render: %v", err)
	}

	// Distributed: coordinator journal + two workers on a chaotic simnet.
	opt := fabricOpt()
	coordJournal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewNet(fabric.ChaosPlan{
		Seed: 7, DropPerMille: 60, DupPerMille: 150, DelayPerMille: 250,
		DelayMax: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	evlog := obs.NewLog(nil, "keystone")
	onResult, onFailure := CoordinatorSinks(coordJournal)
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		DeadAfter:    250 * time.Millisecond,
		LeaseTimeout: 2 * time.Second,
		BackoffBase:  10 * time.Millisecond,
		Steal:        true,
		LocalGrace:   time.Hour, // the fleet must do the work in this test
		OnResult:     onResult,
		OnFailure:    onFailure,
		Obs:          fabric.NewObs(nil, evlog),
	})
	go coord.Serve(net.Listener()) //simlint:allow goroutine — test harness

	// Worker 1 crashes right after its second completion lands in its
	// local journal; its restart must resume from that journal.
	w1Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var w1Done int32
	crashOnce := sync.Once{}
	crashed := make(chan struct{})
	w1Inner := FabricRunner(w1Journal, 0, nil, nil)
	startW1 := func() {
		conn, err := net.Dial("w1")
		if err != nil {
			t.Fatalf("dial w1: %v", err)
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: "w1", Heartbeat: 30 * time.Millisecond,
			Run: func(spec fabric.PointSpec) (*core.Result, bool, error) {
				res, resumed, err := w1Inner(spec)
				if err == nil && !resumed && atomic.AddInt32(&w1Done, 1) == 2 {
					crashOnce.Do(func() {
						net.Crash("w1")
						close(crashed)
					})
				}
				return res, resumed, err
			},
		})
		go w.RunConn(conn) //simlint:allow goroutine — test harness
	}

	w2Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	startW2 := func() {
		conn, err := net.Dial("w2")
		if err != nil {
			t.Fatalf("dial w2: %v", err)
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: "w2", Heartbeat: 30 * time.Millisecond,
			Run: FabricRunner(w2Journal, 0, nil, nil),
		})
		go w.RunConn(conn) //simlint:allow goroutine — test harness
	}

	startW1()
	startW2()
	// Restart w1 after its scripted crash.
	go func() { //simlint:allow goroutine — test harness
		<-crashed
		time.Sleep(50 * time.Millisecond) //simlint:allow wallclock — restart delay
		conn, err := net.Dial("w1")
		if err != nil {
			return
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: "w1", Heartbeat: 30 * time.Millisecond, Run: w1Inner,
		})
		go w.RunConn(conn) //simlint:allow goroutine — test harness
	}()

	if _, err := coord.Run(specs); err != nil {
		t.Fatalf("distributed sweep: %v", err)
	}

	// Render from the coordinator's journal: zero fresh simulations,
	// byte-identical table.
	var dist bytes.Buffer
	ropt := fabricOpt()
	ropt.Out = &dist
	ropt.Journal = coordJournal
	s := NewSuite(ropt)
	if err := s.PrintTable7(); err != nil {
		t.Fatalf("distributed render: %v", err)
	}
	if s.Fresh() != 0 {
		t.Errorf("rendering simulated %d fresh points; the fleet should have delivered all of them", s.Fresh())
	}
	if !bytes.Equal(local.Bytes(), dist.Bytes()) {
		t.Errorf("distributed table differs from local run:\n--- local ---\n%s\n--- distributed ---\n%s",
			local.String(), dist.String())
	}

	// The chaos left footprints: the crash was noticed and recovered.
	kinds := map[string]int{}
	for _, e := range evlog.Recent() {
		kinds[e.Kind]++
	}
	if kinds[fabric.EventWorkerDead] == 0 {
		t.Errorf("no %s event despite the scripted crash; kinds = %v", fabric.EventWorkerDead, kinds)
	}
	if kinds[fabric.EventResult] != len(specs) {
		t.Errorf("%d first completions, want %d; kinds = %v", kinds[fabric.EventResult], len(specs), kinds)
	}
}

// TestFleetTimelineCompleteUnderChaos is the fleet-observability
// keystone: a chaotic distributed sweep (drop/dup/delay, a mid-sweep
// worker crash with journal-backed restart, and a network partition
// that black-holes the other worker past the liveness deadline) must
// still produce a merged fleet timeline in which every assigned point
// reaches exactly one terminal state, the /fleet totals account for
// every planned point, worker-origin spans appear in the coordinator's
// merged view with their trace IDs intact, and the rendered table is
// byte-identical to a plain local run.
func TestFleetTimelineCompleteUnderChaos(t *testing.T) {
	// Golden: the plain local suite.
	var local bytes.Buffer
	lopt := fabricOpt()
	lopt.Out = &local
	if err := NewSuite(lopt).PrintTable7(); err != nil {
		t.Fatalf("local render: %v", err)
	}

	opt := fabricOpt()
	coordJournal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := PlanPoints([]string{"table7"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.NewNet(fabric.ChaosPlan{
		Seed: 41, DropPerMille: 60, DupPerMille: 150, DelayPerMille: 250,
		DelayMax: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator-side fleet plane: the event log mirrors synchronously
	// into the view, so the merged timeline is lossless by construction.
	evlog := obs.NewLog(nil, "keystone")
	view := fleet.NewView("keystone", nil)
	evlog.SetMirror(view.Observe)
	view.SetTotal(len(specs))
	onResult, onFailure := CoordinatorSinks(coordJournal)
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		DeadAfter:    250 * time.Millisecond,
		LeaseTimeout: 2 * time.Second,
		BackoffBase:  10 * time.Millisecond,
		Steal:        true,
		LocalGrace:   time.Hour, // the fleet must do the work in this test
		OnResult:     onResult,
		OnFailure:    onFailure,
		Obs:          fabric.NewObs(nil, evlog),
	})
	view.SetSource(coord.FleetWorkers)
	served := make(chan struct{})
	go func() { //simlint:allow goroutine — test harness
		defer close(served)
		coord.Serve(net.Listener())
	}()

	// Each worker runs its own obs plane: a sweep feeding a local event
	// log whose mirror buffers spans for piggybacked shipment.
	workerObs := func(id string) (*obs.Sweep, *fleet.SpanBuffer) {
		wlog := obs.NewLog(nil, "worker-"+id)
		buf := fleet.NewSpanBuffer()
		wlog.SetMirror(buf.Observe)
		return obs.NewSweep("worker-"+id, nil, wlog), buf
	}

	// Every harness goroutine is joined before the test returns, and
	// none of them calls t.Fatal: a worker start reports its dial error.
	var workers sync.WaitGroup
	startWorker := func(id string, spans *fleet.SpanBuffer, run fabric.Runner) error {
		conn, err := net.Dial(id)
		if err != nil {
			return fmt.Errorf("dial %s: %w", id, err)
		}
		w := fabric.NewWorker(fabric.WorkerConfig{
			ID: id, Heartbeat: 30 * time.Millisecond,
			Run: run, Spans: spans.Drain,
		})
		workers.Add(1)
		go func() { //simlint:allow goroutine — test harness
			defer workers.Done()
			w.RunConn(conn)
		}()
		return nil
	}
	// rejoin restarts a worker wait after trigger fires, unless the sweep
	// finishes first; the returned channel carries the restart's error.
	sweepDone := make(chan struct{})
	rejoin := func(trigger <-chan struct{}, wait time.Duration, restart func() error) <-chan error {
		errc := make(chan error, 1)
		go func() { //simlint:allow goroutine — test harness
			select {
			case <-trigger:
			case <-sweepDone:
				errc <- nil
				return
			}
			select {
			case <-time.After(wait): //simlint:allow wallclock — restart delay
			case <-sweepDone:
				errc <- nil
				return
			}
			errc <- restart()
		}()
		return errc
	}

	// Worker 1 crashes right after its second fresh completion; its
	// restart resumes from its journal.
	w1Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w1Sweep, w1Spans := workerObs("w1")
	w1Inner := FabricRunner(w1Journal, 0, nil, w1Sweep)
	var w1Done int32
	crashOnce := sync.Once{}
	crashed := make(chan struct{})
	if err := startWorker("w1", w1Spans, func(spec fabric.PointSpec) (*core.Result, bool, error) {
		res, resumed, err := w1Inner(spec)
		if err == nil && !resumed && atomic.AddInt32(&w1Done, 1) == 2 {
			crashOnce.Do(func() {
				net.Crash("w1")
				close(crashed)
			})
		}
		return res, resumed, err
	}); err != nil {
		t.Fatal(err)
	}
	w1Restarted := rejoin(crashed, 50*time.Millisecond, func() error {
		return startWorker("w1", w1Spans, w1Inner)
	})

	// Worker 2 is partitioned (black-holed, conn nominally up) after its
	// second fresh completion, long enough for the coordinator to declare
	// it dead and requeue its leases; after the heal it redials.
	w2Journal, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w2Sweep, w2Spans := workerObs("w2")
	w2Inner := FabricRunner(w2Journal, 0, nil, w2Sweep)
	var w2Done int32
	partOnce := sync.Once{}
	partitioned := make(chan struct{})
	if err := startWorker("w2", w2Spans, func(spec fabric.PointSpec) (*core.Result, bool, error) {
		res, resumed, err := w2Inner(spec)
		if err == nil && !resumed && atomic.AddInt32(&w2Done, 1) == 2 {
			partOnce.Do(func() {
				net.Partition("w2")
				close(partitioned)
			})
		}
		return res, resumed, err
	}); err != nil {
		t.Fatal(err)
	}
	// Outlast DeadAfter so the silence is noticed and the leases move.
	w2Healed := rejoin(partitioned, 400*time.Millisecond, func() error {
		net.Heal("w2")
		return startWorker("w2", w2Spans, w2Inner)
	})

	_, runErr := coord.Run(specs)
	close(sweepDone)
	for _, errc := range []<-chan error{w1Restarted, w2Healed} {
		// A restart that lost the race with the fleet's drain finds the
		// network closed; any other dial failure is a harness fault.
		if err := <-errc; err != nil && !errors.Is(err, fabric.ErrNetClosed) {
			t.Errorf("worker restart: %v", err)
		}
	}
	// Sever what links remain (a still-partitioned w2, or a worker whose
	// Drain frame the chaos dropped), then wait for every worker.
	net.Crash("w1")
	net.Crash("w2")
	workers.Wait()
	<-served
	if runErr != nil {
		t.Fatalf("distributed sweep: %v", runErr)
	}

	// Tables byte-identical, zero fresh simulations on render.
	var dist bytes.Buffer
	ropt := fabricOpt()
	ropt.Out = &dist
	ropt.Journal = coordJournal
	s := NewSuite(ropt)
	if err := s.PrintTable7(); err != nil {
		t.Fatalf("distributed render: %v", err)
	}
	if s.Fresh() != 0 {
		t.Errorf("rendering simulated %d fresh points; the fleet should have delivered all of them", s.Fresh())
	}
	if !bytes.Equal(local.Bytes(), dist.Bytes()) {
		t.Errorf("distributed table differs from local run:\n--- local ---\n%s\n--- distributed ---\n%s",
			local.String(), dist.String())
	}

	// Completeness: every planned point was assigned and reached exactly
	// one terminal state, despite the crash, the partition, and the
	// message chaos.
	a := view.Audit()
	if a.Points != len(specs) || a.Assigned != len(specs) {
		t.Errorf("audit saw %d points (%d assigned), want %d", a.Points, a.Assigned, len(specs))
	}
	if len(a.Incomplete) != 0 {
		t.Errorf("points with no terminal state: %v", a.Incomplete)
	}
	if len(a.MultiResult) != 0 {
		t.Errorf("points with more than one first-completion: %v", a.MultiResult)
	}
	if a.Failed != 0 {
		t.Errorf("audit counted %d failed points, want 0", a.Failed)
	}
	if a.Done+a.Replayed != len(specs) {
		t.Errorf("done %d + replayed %d != %d planned points", a.Done, a.Replayed, len(specs))
	}

	// The /fleet doc's totals must account for every planned point.
	doc := view.Doc()
	if doc.Schema != fleet.SchemaV1 {
		t.Errorf("fleet doc schema = %q, want %s", doc.Schema, fleet.SchemaV1)
	}
	if doc.Totals.Points != len(specs) || doc.Totals.Done+doc.Totals.Replayed != len(specs) || doc.Totals.Failed != 0 {
		t.Errorf("fleet totals %+v do not account for %d planned points", doc.Totals, len(specs))
	}
	if doc.Totals.Workers < 2 {
		t.Errorf("fleet doc saw %d workers, want at least w1 and w2", doc.Totals.Workers)
	}

	// Every point's merged timeline is reachable by name and by trace ID,
	// and every traced event on it carries the point's own trace.
	for _, spec := range specs {
		name, trace := spec.Name(), fleet.TraceID(spec.Key())
		tl, ok := view.Timeline(name)
		if !ok || len(tl) == 0 {
			t.Fatalf("no merged timeline for point %s", name)
		}
		if byTrace, ok := view.Timeline(trace); !ok || len(byTrace) != len(tl) {
			t.Errorf("timeline lookup by trace %s of %s: ok=%v len=%d want %d", trace, name, ok, len(byTrace), len(tl))
		}
		for _, e := range tl {
			if e.Trace != "" && e.Trace != trace {
				t.Errorf("point %s: event %s carries foreign trace %s (want %s)", name, e.Kind, e.Trace, trace)
			}
		}
	}

	// Cross-process enrichment: worker-origin spans (Run label stamped by
	// the worker's own log) made it into the coordinator's merged view.
	workerSpans := 0
	for _, name := range view.Points() {
		tl, _ := view.Timeline(name)
		for _, e := range tl {
			if strings.HasPrefix(e.Run, "worker-") {
				workerSpans++
			}
		}
	}
	if workerSpans == 0 {
		t.Error("no worker-origin spans in the merged fleet view; piggyback shipment delivered nothing")
	}

	// Both failure injections left liveness footprints.
	kinds := map[string]int{}
	for _, e := range evlog.Recent() {
		kinds[e.Kind]++
	}
	if kinds[fabric.EventWorkerDead] < 2 {
		t.Errorf("want at least 2 %s events (crash + partition), got %d; kinds = %v",
			fabric.EventWorkerDead, kinds[fabric.EventWorkerDead], kinds)
	}
	if kinds[fabric.EventResult] != len(specs) {
		t.Errorf("%d first completions, want %d; kinds = %v", kinds[fabric.EventResult], len(specs), kinds)
	}
}
