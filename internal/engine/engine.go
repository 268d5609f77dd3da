//go:build go1.23

// Package engine implements the deterministic discrete-event core of the
// clustered-multiprocessor simulator, in the style of Tango-lite: every
// simulated processor runs its workload as a coroutine, and one driver
// loop resumes exactly one of them at a time. A processor suspends back
// to the driver whenever it must wait for others, naming the next
// processor to resume, so that references to the shared memory-system
// model are always performed in global virtual-time order.
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
	"runtime/debug"
	"sort"
	"strings"
)

// Clock counts simulated processor cycles.
type Clock = int64

type runState uint8

const (
	stateReady    runState = iota // in the ready heap, waiting to be resumed
	stateRunning                  // the coroutine the driver is resuming
	stateBlocked                  // parked on a synchronisation object
	stateFinished                 // kernel returned
)

// Probe observes scheduler-internal events: it is the engine half of the
// telemetry layer. Callbacks arrive one at a time from the running
// processor (or the driver loop, for the initial dispatch), in global
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
// switches through the driver loop to the next processor); EnterApp
// fires when a processor resumes application execution. Exactly one
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
// only from the coroutine running that PE's kernel, while the driver is
// resuming it; the Scheduler enforces this by construction.
type PE struct {
	id     int
	sched  *Scheduler
	time   Clock
	state  runState
	reason string // why blocked, for deadlock reports

	resume func() (struct{}, bool) // runs the coroutine until it suspends
	stop   func()                  // makes a pending suspend unwind
	yield  func(struct{}) bool     // suspends back to the driver loop
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
	for len(s.heap) > 0 && s.heap[0].time+s.quantum < pe.time {
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

// suspend returns control to the driver loop until it resumes this PE,
// unwinding if the run ends first. Resuming is where the handoff span
// opened by EnterSched ends.
func (pe *PE) suspend() {
	if !pe.yield(struct{}{}) {
		panic(abortPanic{})
	}
	if pe.sched.timer != nil {
		pe.sched.timer.EnterApp()
	}
}

// Scheduler owns the processors of one simulation run.
type Scheduler struct {
	pes       []*PE
	heap      []readyEntry
	next      *PE // processor the driver resumes next; nil ends the run
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
	s := &Scheduler{quantum: quantum, heap: make([]readyEntry, 0, n)}
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
		pe.resume, pe.stop = iter.Pull(s.coroutine(pe, kernel))
	}
	if s.timer != nil {
		s.timer.EnterSched() // initial dispatch is scheduling work
	}
	first := s.heapPopMin()
	first.state = stateRunning
	if s.probe != nil {
		s.probe.Handoff(-1, first.id, 0, first.time, len(s.heap))
	}
	for pe := first; pe != nil; pe = s.next {
		s.next = nil
		pe.resume()
	}
	for _, pe := range s.pes {
		pe.stop()
	}
	return s.err
}

// coroutine wraps kernel for pe: it starts on pe's first resume, hands
// on when the kernel returns, and turns a kernel panic into the run's
// error.
func (s *Scheduler) coroutine(pe *PE, kernel func(*PE)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		pe.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortPanic); ok {
					return
				}
				// Annotate with the crash site's simulation coordinates
				// (workload, PE, virtual time) so a failure is
				// diagnosable — and, with a seeded fault plan,
				// replayable — from the error alone.
				s.fail(fmt.Errorf("engine: app %q: processor %d panicked at virtual time %d: %v\n%s",
					s.labelOrDefault(), pe.id, pe.time, r, debug.Stack()))
			}
		}()
		if s.timer != nil {
			s.timer.EnterApp()
		}
		kernel(pe)
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
	} else if s.nFinished < len(s.pes) {
		s.fail(s.deadlockError())
	}
}

// handoff makes next the processor the driver resumes once from suspends.
func (s *Scheduler) handoff(from, next *PE) {
	next.state = stateRunning
	if s.probe != nil {
		s.probe.Handoff(from.id, next.id, from.time, next.time, len(s.heap))
	}
	s.next = next
}

// fail records err if it is the first, and ends the driver loop once
// the running processor suspends or unwinds.
func (s *Scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.next = nil
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

// readyEntry is a runnable processor in the ready heap. A ready
// processor does not run, so its clock cannot change while it waits and
// the heap can hold a copy of it, keeping sifts within one array.
type readyEntry struct {
	time Clock
	id   int
}

func (a readyEntry) less(b readyEntry) bool {
	return a.time < b.time || (a.time == b.time && a.id < b.id)
}

func (s *Scheduler) heapPush(pe *PE) {
	e := readyEntry{pe.time, pe.id}
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(s.heap[parent]) {
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
	return s.pes[min.id]
}

// heapReplaceTop swaps pe in for the minimum and returns the old
// minimum: one sift instead of a push followed by a pop.
func (s *Scheduler) heapReplaceTop(pe *PE) *PE {
	min := s.heap[0]
	s.siftDown(readyEntry{pe.time, pe.id})
	return s.pes[min.id]
}

// siftDown places e in the heap, whose root slot it takes over, moving
// smaller children up into the hole until e fits.
func (s *Scheduler) siftDown(e readyEntry) {
	h := s.heap
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
