package engine

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMain fails the package if any goroutine started by its tests
// (processor coroutines included) is still alive once they finish.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settledGoroutines(base); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines before tests, %d after\n%s\n", base, n, buf)
			code = 1
		}
	}
	os.Exit(code)
}

// settledGoroutines returns the goroutine count once it drops to base,
// yielding the processor meanwhile so that finished test goroutines get
// to exit; it gives up after a bounded number of yields.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > base; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestAbortUnwindsEveryProcessor ends a run three ways — Fail, a kernel
// panic and a deadlock — while the other processors are suspended:
// blocked, or (except in a deadlock, where nothing is runnable) one in
// Yield. Every processor's deferred functions must have run, and no
// coroutine may be left alive, by the time Run returns.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			unwound := make([]bool, n)
			s := NewScheduler(n, 0)
			err := s.Run(func(pe *PE) {
				defer func() { unwound[pe.ID()] = true }()
				switch pe.ID() {
				case 0:
					pe.Advance(1000) // suspended in Yield when the run ends
					pe.Yield()
					if tc.name == "deadlock" {
						pe.Block("parked 0")
					}
				case 3:
					pe.Advance(100) // every other processor is parked first
					pe.Yield()
					tc.trigger(pe)
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
