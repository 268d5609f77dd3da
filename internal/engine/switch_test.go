//go:build go1.23

package engine

import (
	"fmt"
	"iter"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestCoroSwitchContract pins the iter.Pull behaviour that direct
// transfer between processors depends on: next and yield on a coroutine
// are each one plain switch, whichever goroutine makes it. Here c1 is
// switched next, yield, next by the test goroutine and by the goroutine
// running c2, never by its own; and c2 is started by c1's goroutine,
// not by the goroutine that created it. Should a Go release start
// checking the caller, the engine's handoffs stop working, and this
// test says why.
func TestCoroSwitchContract(t *testing.T) {
	const dependency = "the engine hands off by switching on another processor's iter.Pull coroutine, " +
		"which needs next and yield to work from any goroutine"
	var (
		log    []string
		failed any // the first panic a switch raised
		next2  func() (struct{}, bool)
		yield1 func(struct{}) bool
	)
	guard := func(f func()) {
		defer func() {
			if r := recover(); r != nil && failed == nil {
				failed = r
			}
		}()
		f()
	}
	next1, stop1 := iter.Pull(func(yield func(struct{}) bool) {
		yield1 = yield
		log = append(log, "c1 starts")
		guard(func() { next2() })
		log = append(log, "c1 ends")
	})
	next2, stop2 := iter.Pull(func(func(struct{}) bool) {
		log = append(log, "c2 starts")
		guard(func() {
			// Park on c1, waking the test goroutine parked there.
			ok := yield1(struct{}{})
			log = append(log, fmt.Sprintf("c2 resumed: %v", ok))
		})
		log = append(log, "c2 ends")
	})
	defer stop1()
	defer stop2()
	for range 2 {
		guard(func() {
			_, ok := next1()
			log = append(log, fmt.Sprintf("home: %v", ok))
		})
	}
	if failed != nil {
		t.Fatalf("%s; a switch panicked: %v", dependency, failed)
	}
	want := "c1 starts|c2 starts|home: true|c2 resumed: true|c2 ends|c1 ends|home: false"
	if got := strings.Join(log, "|"); got != want {
		t.Fatalf("%s; switch order\n got %s\nwant %s", dependency, got, want)
	}
}

// TestFinishHandsOver: a processor finishes while its coroutine holds
// the goroutine of a processor other than the next to run. That
// goroutine is woken by the coroutine's end and must pass control on,
// not run out of turn. Here PE 1 finishes with PE 2 parked on its
// coroutine and PE 0 next.
func TestFinishHandsOver(t *testing.T) {
	s := NewScheduler(3, 0)
	var log []string
	steps := [][]Clock{{1, 3, 2}, {3}, {5}}
	err := s.Run(func(pe *PE) {
		for _, d := range steps[pe.ID()] {
			pe.Advance(d)
			pe.Yield()
			log = append(log, fmt.Sprintf("%d@%d", pe.ID(), pe.Now()))
		}
		if pe.ID() == 1 {
			if s.pes[2].parked != pe || s.heap[0] != s.entry(s.pes[0]) {
				t.Error("PE 1 finishes without PE 2 parked on its coroutine and PE 0 next; the test misses its case")
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "0@1|1@3|0@4|2@5|0@6"
	if got := strings.Join(log, "|"); got != want {
		t.Errorf("event order = %s, want %s", got, want)
	}
	if got := fmt.Sprint(s.Times()); got != "[6 3 5]" {
		t.Errorf("final clocks = %s, want [6 3 5]", got)
	}
}

// TestConcurrentSchedulers runs independent Schedulers side by side in
// their own goroutines, as fabric workers do. Each must reproduce the
// quantum-0 handoff golden: one run's switches never wake another's
// processors. Run it under -race.
func TestConcurrentSchedulers(t *testing.T) {
	want, err := os.ReadFile(goldenPath(0))
	if err != nil {
		t.Fatal(err)
	}
	const workers, runs = 4, 20
	diffs := make([]string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() { //simlint:allow goroutine — test harness: one Scheduler per goroutine, as fabric workers run them
			defer wg.Done()
			for range runs {
				got, err := handoffSequence(0)
				if err != nil {
					diffs[w] = err.Error()
					return
				}
				if d := sequenceDiff(got, string(want)); d != "" {
					diffs[w] = d
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, d := range diffs {
		if d != "" {
			t.Errorf("scheduler %d: %s", w, d)
		}
	}
}

// TestKernelGoexitFailsRun: a kernel that ends its goroutine with
// runtime.Goexit, as t.FailNow does, fails the run. The goroutine
// parked on its coroutine is woken by the coroutine's end and must not
// take it for a handoff. Here that goroutine is parked in yield, so
// iter.Pull does not pass the Goexit on to it; had it been parked in
// next, it would have exited too.
func TestKernelGoexitFailsRun(t *testing.T) {
	s := NewScheduler(4, 0)
	err := s.Run(func(pe *PE) {
		for i := 0; i < 5; i++ {
			pe.Advance(Clock(1 + pe.ID()))
			pe.Yield()
			if pe.ID() == 1 && i == 2 {
				runtime.Goexit()
			}
		}
	})
	if err == nil || !strings.Contains(err.Error(), "processor 1 exited its goroutine") {
		t.Fatalf("Run error = %v, want processor 1's goroutine exit", err)
	}
}
