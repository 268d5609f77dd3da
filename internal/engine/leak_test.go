package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"clustersim/internal/leakcheck"
)

// TestMain fails the package if any goroutine started by its tests
// (processor coroutines included) is still alive once they finish.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestAbortUnwindsEveryProcessor ends a run three ways — Fail, a kernel
// panic and a deadlock — while the other processors are suspended:
// blocked, or (except in a deadlock, where nothing is runnable) one in
// Yield. Every processor's deferred functions must have run, and no
// coroutine may be left alive, by the time Run returns. In the fourth
// case the failing processor was last resumed by the end of another's
// coroutine: PE 4 finishes instead of blocking, and its end wakes PE 3.
func TestAbortUnwindsEveryProcessor(t *testing.T) {
	sentinel := errors.New("app-level failure")
	const n = 6
	cases := []struct {
		name    string
		trigger func(pe *PE)
		want    string
	}{
		{"fail", func(pe *PE) { pe.Fail(sentinel) }, sentinel.Error()},
		{"panic", func(pe *PE) { panic("boom") }, "processor 3 panicked"},
		{"deadlock", func(pe *PE) { pe.Block("last one in") }, "deadlock"},
		{"fail after finish", func(pe *PE) { pe.Fail(sentinel) }, sentinel.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			unwound := make([]bool, n)
			s := NewScheduler(n, 0)
			err := s.Run(func(pe *PE) {
				defer func() { unwound[pe.ID()] = true }()
				finisher := tc.name == "fail after finish"
				switch id := pe.ID(); {
				case id == 0:
					pe.Advance(1000) // suspended in Yield when the run ends
					pe.Yield()
					if tc.name == "deadlock" {
						pe.Block("parked 0")
					}
				case id == 3:
					pe.Advance(100) // every other processor is parked first
					pe.Yield()
					if finisher && (pe.parked != s.pes[4] || s.pes[4].state != stateFinished) {
						t.Error("PE 3 was not resumed by the end of PE 4's coroutine; the case misses its aim")
					}
					tc.trigger(pe)
				case id == 4 && finisher:
					pe.Advance(50) // the last to run before PE 3
					pe.Yield()
					return
				default:
					pe.Advance(Clock(pe.ID()))
					pe.Yield()
					pe.Block(fmt.Sprintf("parked %d", pe.ID()))
				}
				t.Errorf("PE %d kept running after the run ended", pe.ID())
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error = %v, want one containing %q", err, tc.want)
			}
			for id, ok := range unwound {
				if !ok {
					t.Errorf("PE %d's deferred functions did not run", id)
				}
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines outlive Run (%d before, %d after)", after-before, before, after)
			}
		})
	}
}

// TestCleanRunLeavesNoCoroutine: a run that completes normally also
// returns with every processor's coroutine gone.
func TestCleanRunLeavesNoCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewScheduler(16, 0)
	if err := s.Run(mixedKernel(16)); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines outlive Run (%d before, %d after)", after-before, before, after)
	}
}
