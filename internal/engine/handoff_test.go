package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateHandoffs = flag.Bool("update-handoffs", false,
	"rewrite testdata/handoffs_q*.golden from the current engine")

// handoffRecorder logs every Probe and Timer callback, in call order,
// one line each: "S" for EnterSched, "A" for EnterApp and
// "H from to fromTime toTime readyDepth" for Handoff.
type handoffRecorder struct {
	b          strings.Builder
	sched, app int
}

func (r *handoffRecorder) Handoff(from, to int, fromTime, toTime Clock, depth int) {
	fmt.Fprintf(&r.b, "H %d %d %d %d %d\n", from, to, fromTime, toTime, depth)
}

func (r *handoffRecorder) EnterSched() { r.sched++; r.b.WriteString("S\n") }
func (r *handoffRecorder) EnterApp()   { r.app++; r.b.WriteString("A\n") }

// mixedKernel returns a kernel for n processors that exercises every
// scheduling path: Advance/Yield rounds, a FIFO lock whose release
// hands ownership to the first waiter via Unblock, and a machine-wide
// barrier built from Block/Unblock every fourth round.
func mixedKernel(n int) func(*PE) {
	holder := -1
	var queue, arrived []*PE
	return func(pe *PE) {
		id := pe.ID()
		for round := 0; round < 12; round++ {
			pe.Advance(Clock(1 + (id*7+round*3)%11))
			pe.Yield()
			if (id+round)%2 == 0 {
				if holder >= 0 {
					queue = append(queue, pe)
					pe.Block("lock")
				} else {
					holder = id
				}
				pe.Advance(Clock(2 + id%3))
				pe.Yield()
				if len(queue) > 0 {
					next := queue[0]
					queue = queue[1:]
					holder = next.ID()
					pe.Unblock(next, pe.Now())
				} else {
					holder = -1
				}
			}
			if round%4 == 3 {
				pe.Yield()
				if len(arrived) == n-1 {
					for _, w := range arrived {
						pe.Unblock(w, pe.Now())
					}
					arrived = arrived[:0]
				} else {
					arrived = append(arrived, pe)
					pe.Block("barrier")
				}
			}
		}
	}
}

// TestHandoffSequenceGolden pins the scheduler's exact decision
// sequence: every Handoff tuple and every EnterSched/EnterApp call, in
// order, for a fixed 8-processor kernel at quantum 0 and quantum 5.
// The goldens were captured from the original goroutine-per-processor
// engine, so a match proves a rewritten engine schedules identically.
func TestHandoffSequenceGolden(t *testing.T) {
	for _, q := range []Clock{0, 5} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			const n = 8
			s := NewScheduler(n, q)
			rec := &handoffRecorder{}
			s.SetProbe(rec)
			s.SetTimer(rec)
			if err := s.Run(mixedKernel(n)); err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := fmt.Sprintf("times %v\nsched %d app %d\n%s", s.Times(), rec.sched, rec.app, rec.b.String())
			path := filepath.Join("testdata", fmt.Sprintf("handoffs_q%d.golden", q))
			if *updateHandoffs {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("handoff sequence diverges at line %d: got %q, want %q", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("handoff sequence length differs: got %d lines, want %d", len(gl), len(wl))
			}
		})
	}
}
