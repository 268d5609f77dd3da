//go:build go1.23

// Package engine implements the deterministic discrete-event core of the
// clustered-multiprocessor simulator, in the style of Tango-lite: every
// simulated processor runs its workload as a coroutine, and exactly one
// of them runs at a time. A processor that must wait for others picks
// the next processor to run and transfers control straight to it, one
// coroutine switch per handoff, so that references to the shared
// memory-system model are always performed in global virtual-time order.
//
// The switches use the coroutines under iter.Pull, which are symmetric:
// a switch on a coroutine wakes whichever goroutine is parked on it and
// parks the caller there instead, and iter.Pull's next and yield are
// each one such switch that does not check which goroutine calls it.
// Each processor records which coroutine it is parked on, and a handoff
// switches on the target's. A processor's coroutine ends when its
// kernel returns, which wakes whichever goroutine is parked there —
// another processor, or the goroutine that called Run (home) — and that
// goroutine passes control on unless it is the one due to run. A failed
// run sends control home, and Run resumes every suspended processor so
// that it unwinds. TestCoroSwitchContract pins the iter.Pull behaviour
// this relies on.
//
// The scheduling invariant is: the running processor may only perform an
// event while its virtual clock is within Quantum cycles of the minimum
// clock over all other runnable processors. With Quantum = 0 (the default)
// event ordering is exact; larger values trade bounded timing skew for
// fewer coroutine switches on large parameter sweeps.
//
// Ties in virtual time are broken by processor ID, so simulations are
// bit-reproducible.
package engine

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"runtime/debug"
	"sort"
	"strings"
)

// Clock counts simulated processor cycles.
type Clock = int64

type runState uint8

const (
	stateReady    runState = iota // in the ready heap, waiting to be resumed
	stateRunning                  // the processor that runs now
	stateBlocked                  // parked on a synchronisation object
	stateFinished                 // kernel returned
)

// Probe observes scheduler-internal events: it is the engine half of the
// telemetry layer. Callbacks arrive one at a time from the running
// processor (or from Run, for the initial dispatch), in global
// virtual-time order, so implementations need no locking. A nil probe
// costs one predictable branch per handoff.
type Probe interface {
	// Handoff fires every time execution passes to another processor.
	// from is the suspending processor (-1 for the initial dispatch),
	// to the resuming one; fromTime and toTime are their virtual clocks
	// and readyDepth is the ready-heap population after the pop. The
	// skew fromTime-toTime is the quantum slack actually exploited.
	Handoff(from, to int, fromTime, toTime Clock, readyDepth int)
}

// Timer observes where the host's wall-clock time goes — the engine
// half of the perf monitor. EnterSched fires when the running processor
// begins handoff machinery (ready-heap maintenance and the coroutine
// switch straight to the next processor); EnterApp fires when a
// processor resumes application execution. Exactly one
// coroutine executes at a time, so calls arrive strictly ordered and
// implementations need no locking. A nil timer costs one predictable
// branch per handoff.
type Timer interface {
	EnterSched()
	EnterApp()
}

// abortPanic unwinds a processor's coroutine during simulation shutdown.
type abortPanic struct{}

// PE is a simulated processing element. All of its methods must be called
// only from the coroutine running that PE's kernel, while it is the
// running processor; the Scheduler enforces this by construction.
type PE struct {
	id     int
	sched  *Scheduler
	time   Clock
	state  runState
	reason string // why blocked, for deadlock reports

	// The switch state of the coroutine that runs this PE's kernel. Any
	// goroutine may switch on it; the switches alternate iter.Pull's
	// next and yield, starting with next, which also starts the kernel.
	next      func() (struct{}, bool)
	yield     func(struct{}) bool
	yieldTurn bool // the next switch on this coroutine is a yield

	parked *PE // whose coroutine this PE's goroutine is parked on
}

// ID returns the processor number, in [0, NumPE).
func (pe *PE) ID() int { return pe.id }

// Now returns the processor's virtual clock in cycles.
func (pe *PE) Now() Clock { return pe.time }

// Advance moves the processor's virtual clock forward without yielding.
// Callers that generate shared events must call Yield before acting on
// shared state.
func (pe *PE) Advance(cycles Clock) {
	if cycles < 0 {
		panic(fmt.Sprintf("engine: PE %d advanced by negative %d cycles", pe.id, cycles))
	}
	pe.time += cycles
}

// SetTime warps the processor's clock forward to at (never backward).
func (pe *PE) SetTime(at Clock) {
	if at > pe.time {
		pe.time = at
	}
}

// Yield suspends the processor in favour of others until its clock is
// within the scheduler's quantum of the minimum runnable clock. It must
// be called before every event that touches shared simulator state, so
// that such events occur in virtual-time order.
func (pe *PE) Yield() {
	s := pe.sched
	for len(s.heap) > 0 && s.entryTime(s.heap[0])+s.quantum < pe.time {
		if s.timer != nil {
			s.timer.EnterSched()
		}
		// heap[0] orders strictly before pe, so it stays the minimum
		// once pe takes its slot.
		pe.state = stateReady
		s.handoff(pe, s.heapReplaceTop(pe))
		pe.suspend()
	}
}

// Block parks the processor until another processor calls Unblock on it.
// The reason string appears in deadlock reports. Time accounting for the
// wait is the caller's responsibility (see Unblock).
func (pe *PE) Block(reason string) {
	pe.state = stateBlocked
	pe.reason = reason
	pe.sched.dispatch(pe)
	pe.suspend()
	pe.reason = ""
}

// Unblock resumes target, which must be blocked, setting its clock to at
// if that is later than its current clock. The caller keeps running; the
// target becomes runnable and is resumed when its clock is globally
// minimal.
func (pe *PE) Unblock(target *PE, at Clock) {
	if target.state != stateBlocked {
		panic(fmt.Sprintf("engine: PE %d unblocked PE %d which is not blocked", pe.id, target.id))
	}
	target.SetTime(at)
	target.state = stateReady
	pe.sched.heapPush(target)
}

// Fail aborts the whole simulation with err. It does not return.
func (pe *PE) Fail(err error) {
	pe.sched.fail(err)
	panic(abortPanic{})
}

// suspend transfers control to the processor due to run and returns
// once this PE is due again, unwinding if the run ends first. Resuming
// is where the handoff span opened by EnterSched ends.
func (pe *PE) suspend() {
	pe.sched.park(pe)
	if pe.sched.timer != nil {
		pe.sched.timer.EnterApp()
	}
}

// Scheduler owns the processors of one simulation run.
type Scheduler struct {
	pes       []*PE
	heap      []readyEntry
	idBits    uint  // low key bits holding the processor ID
	maxTime   Clock // largest clock a key can hold
	running   *PE   // processor due to run; nil hands control home to Run
	quantum   Clock
	nFinished int
	probe     Probe
	timer     Timer
	label     string // workload name, for panic diagnostics
	err       error
}

// NewScheduler creates a scheduler for n processors with the given
// event-ordering slack (0 = exact ordering).
func NewScheduler(n int, quantum Clock) *Scheduler {
	if n <= 0 {
		panic("engine: scheduler needs at least one processor")
	}
	if quantum < 0 {
		panic("engine: negative quantum")
	}
	idBits := uint(bits.Len(uint(n - 1)))
	s := &Scheduler{quantum: quantum, heap: make([]readyEntry, 0, n), idBits: idBits,
		maxTime: math.MaxInt64 >> (max(idBits, 1) - 1)}
	s.pes = make([]*PE, n)
	pes := make([]PE, n)
	for i := range s.pes {
		pes[i] = PE{id: i, sched: s}
		s.pes[i] = &pes[i]
	}
	return s
}

// NumPE returns the number of processors.
func (s *Scheduler) NumPE() int { return len(s.pes) }

// PEs returns the processors, indexed by ID. Intended for wiring up the
// layer above before Run is called.
func (s *Scheduler) PEs() []*PE { return s.pes }

// SetProbe attaches a telemetry probe; call before Run. A nil probe
// (the default) disables observation entirely.
func (s *Scheduler) SetProbe(p Probe) { s.probe = p }

// SetTimer attaches a wall-clock phase timer; call before Run. A nil
// timer (the default) disables host-time attribution entirely.
func (s *Scheduler) SetTimer(t Timer) { s.timer = t }

// SetLabel names the workload for panic diagnostics; call before Run.
// An empty label (the default) reports as "unnamed".
func (s *Scheduler) SetLabel(label string) { s.label = label }

func (s *Scheduler) labelOrDefault() string {
	if s.label == "" {
		return "unnamed"
	}
	return s.label
}

// Run executes kernel once per processor, each as its own coroutine, and
// returns when every kernel has finished or the simulation has failed.
// It returns the first error (kernel panic, deadlock, or Fail call).
// No coroutine outlives Run: on failure every suspended processor
// unwinds, running its deferred functions, before Run returns.
func (s *Scheduler) Run(kernel func(*PE)) error {
	for _, pe := range s.pes {
		pe.state = stateReady
		s.heapPush(pe)
		pe.next, _ = iter.Pull(s.coroutine(pe, kernel))
		pe.parked = pe
	}
	if s.timer != nil {
		s.timer.EnterSched() // initial dispatch is scheduling work
	}
	first := s.heapPopMin()
	first.state = stateRunning
	if s.probe != nil {
		s.probe.Handoff(-1, first.id, 0, first.time, len(s.heap))
	}
	s.running = first
	s.park(nil)
	// Home runs again once every kernel has returned, or once the run
	// has failed: then it resumes each processor still suspended, which
	// unwinds and hands control back.
	for _, pe := range s.pes {
		if pe.state != stateFinished {
			s.running = pe
			s.park(nil)
		}
	}
	return s.err
}

// park transfers control from the calling goroutine, self (nil for
// home), to the processor due to run, and returns once self is due. A
// goroutine woken by the end of the coroutine it was parked on may not
// be due; it passes control on. A processor woken after the run has
// failed unwinds instead. Home need not record where it parks: nothing
// switches to it, and it wakes only when that coroutine ends.
func (s *Scheduler) park(self *PE) {
	for {
		if s.err != nil && self != nil {
			panic(abortPanic{})
		}
		to := s.running
		if to == self {
			return
		}
		// Switch on the coroutine to is parked on: to runs, and self
		// parks there in its place.
		c := to.parked
		if self != nil {
			self.parked = c
		}
		if c.yieldTurn {
			c.yieldTurn = false
			c.yield(struct{}{})
		} else {
			c.yieldTurn = true
			c.next()
		}
	}
}

// coroutine wraps kernel for pe: it starts on the first switch on pe's
// coroutine, hands on when the kernel returns, and turns a kernel panic
// into the run's error. Its end wakes the goroutine parked on it.
func (s *Scheduler) coroutine(pe *PE, kernel func(*PE)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		pe.yield = yield
		returned := false
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortPanic); !ok {
					// Annotate with the crash site's simulation
					// coordinates (workload, PE, virtual time) so a
					// failure is diagnosable — and, with a seeded fault
					// plan, replayable — from the error alone.
					s.fail(fmt.Errorf("engine: app %q: processor %d panicked at virtual time %d: %v\n%s",
						s.labelOrDefault(), pe.id, pe.time, r, debug.Stack()))
				}
			} else if !returned {
				// The kernel called runtime.Goexit. iter.Pull also
				// passes the Goexit on to the goroutine this
				// coroutine's end wakes, if that one is parked in
				// next; when it is Run's caller, Run does not return.
				s.fail(fmt.Errorf("engine: app %q: processor %d exited its goroutine at virtual time %d",
					s.labelOrDefault(), pe.id, pe.time))
			}
			pe.state = stateFinished
			if s.err != nil {
				s.running = nil
			}
		}()
		if s.err != nil {
			returned = true // the run failed before pe first ran
			return
		}
		if s.timer != nil {
			s.timer.EnterApp()
		}
		kernel(pe)
		returned = true
		pe.state = stateFinished
		s.nFinished++
		s.dispatch(pe)
	}
}

// Times returns the final virtual clock of every processor.
func (s *Scheduler) Times() []Clock {
	out := make([]Clock, len(s.pes))
	for i, pe := range s.pes {
		out[i] = pe.time
	}
	return out
}

// dispatch chooses the minimum-clock runnable processor to resume after
// from stops running. If none is runnable and not all have finished, the
// simulation is deadlocked.
func (s *Scheduler) dispatch(from *PE) {
	if s.timer != nil {
		s.timer.EnterSched()
	}
	if len(s.heap) > 0 {
		s.handoff(from, s.heapPopMin())
		return
	}
	s.running = nil
	if s.nFinished < len(s.pes) {
		s.fail(s.deadlockError())
	}
}

// handoff makes next the processor that runs once from suspends.
func (s *Scheduler) handoff(from, next *PE) {
	next.state = stateRunning
	if s.probe != nil {
		s.probe.Handoff(from.id, next.id, from.time, next.time, len(s.heap))
	}
	s.running = next
}

// fail records err if it is the first, and sends control home once the
// running processor suspends or unwinds.
func (s *Scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.running = nil
}

func (s *Scheduler) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: deadlock: %d finished, blocked processors:", s.nFinished)
	ids := make([]int, 0, len(s.pes))
	for _, pe := range s.pes {
		if pe.state == stateBlocked {
			ids = append(ids, pe.id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		pe := s.pes[id]
		fmt.Fprintf(&b, "\n  PE %d at cycle %d: %s", id, pe.time, pe.reason)
	}
	return fmt.Errorf("%s", b.String())
}

// --- ready heap, ordered by (time, id) --------------------------------

// readyEntry is a runnable processor in the ready heap, packed as
// time<<idBits | id so that (time, id) order is one unsigned compare. A
// ready processor does not run, so its clock cannot change while it
// waits and the heap can hold a copy of it, keeping sifts within one
// array. Keys are unique because IDs are.
type readyEntry uint64

// entry packs pe's key. It panics if the clock has outgrown the bits
// the ID leaves free, rather than wrap and misorder the heap.
func (s *Scheduler) entry(pe *PE) readyEntry {
	if pe.time > s.maxTime {
		panic(fmt.Sprintf("engine: PE %d clock %d exceeds the ready heap's %d-bit time range",
			pe.id, pe.time, 64-s.idBits))
	}
	return readyEntry(uint64(pe.time)<<s.idBits | uint64(pe.id))
}

// entryTime returns the virtual clock packed in e.
func (s *Scheduler) entryTime(e readyEntry) Clock { return Clock(e >> s.idBits) }

// entryPE returns the processor packed in e.
func (s *Scheduler) entryPE(e readyEntry) *PE { return s.pes[e&(1<<s.idBits-1)] }

func (s *Scheduler) heapPush(pe *PE) {
	e := s.entry(pe)
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e > s.heap[parent] {
			break
		}
		s.heap[i] = s.heap[parent]
		i = parent
	}
	s.heap[i] = e
}

func (s *Scheduler) heapPopMin() *PE {
	min := s.heap[0]
	last := len(s.heap) - 1
	e := s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.siftDown(e)
	}
	return s.entryPE(min)
}

// heapReplaceTop swaps pe in for the minimum and returns the old
// minimum: one sift instead of a push followed by a pop.
func (s *Scheduler) heapReplaceTop(pe *PE) *PE {
	min := s.heap[0]
	s.siftDown(s.entry(pe))
	return s.entryPE(min)
}

// siftDown places e in the heap, whose root slot it takes over, moving
// smaller children up into the hole until e fits. Where both children
// exist the smaller is picked without a branch.
func (s *Scheduler) siftDown(e readyEntry) {
	h := s.heap
	i := 0
	for {
		c := 2*i + 1
		if c+1 >= len(h) {
			if c < len(h) && h[c] < e {
				h[i] = h[c]
				i = c
			}
			break
		}
		c += lessBit(h[c+1], h[c])
		if h[c] > e {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// lessBit is 1 if a < b and 0 otherwise; it compiles to a SETcc, so a
// sift picks a child without a mispredictable branch.
func lessBit(a, b readyEntry) int {
	if a < b {
		return 1
	}
	return 0
}
