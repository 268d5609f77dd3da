// Package perf is the simulator's self-observability layer: where the
// previous layers watch the *simulated* machine (telemetry, the sharing
// profiler, the sanitizer), this one watches the *simulator* — host
// wall-clock attribution per execution phase, simulation throughput
// (simulated cycles and engine events per wall second), and Go runtime
// health (heap peak, GC pauses, goroutine count).
//
// A Monitor attaches to a core.Machine via Config.Perf. It is purely
// observational: it never reads or writes simulated state, touches no
// virtual clock, and is excluded from the config hash, so a monitored
// run produces a Result byte-identical to an unmonitored one (pinned by
// test across all nine applications).
//
// Phase attribution exploits the engine's token discipline: exactly one
// goroutine executes at any instant, so a single global phase register
// plus one monotonic-clock read per transition attributes every wall
// nanosecond to exactly one of three phases — application compute (the
// kernel and reference issue), engine scheduling (the token-handoff
// machinery, including the Go runtime's goroutine switch), and the
// coherence protocol (cache, directory and latency model). The three
// phase totals tile the run's wall time exactly.
package perf

import (
	"runtime"
	"time"
)

// Phase classifies one span of the simulator's host execution.
type Phase uint8

const (
	// PhaseApp is application execution: the kernel's compute and the
	// issue side of every memory reference.
	PhaseApp Phase = iota
	// PhaseSched is the engine's token-handoff machinery: ready-heap
	// maintenance and the coroutine switches through the driver loop it
	// triggers.
	PhaseSched
	// PhaseCoherence is the memory-system model: cluster cache lookup,
	// directory state machine and latency accounting.
	PhaseCoherence

	numPhases
)

// String names the phase as it appears in reports.
func (p Phase) String() string {
	switch p {
	case PhaseApp:
		return "app"
	case PhaseSched:
		return "sched"
	case PhaseCoherence:
		return "coherence"
	}
	return "unknown"
}

// hostSampleEvery is the transition-count cadence of mid-run host
// snapshots (heap, goroutines). Counting transitions instead of wall
// time keeps the sampling schedule deterministic for a deterministic
// simulation, and amortises the runtime/metrics read to noise.
const hostSampleEvery = 1 << 16

// Monitor measures one run. Create one per run with New, attach it via
// core.Config.Perf, and read the Report after the run. All methods are
// called from the goroutine holding the engine's execution token (or
// from the machine before/after the run), so the monitor needs no
// locking — the same single-writer argument as the telemetry collector.
type Monitor struct {
	base    time.Time // monotonic origin
	lastNS  int64     // time of the last phase transition, ns since base
	phase   Phase
	running bool

	phaseNS     [numPhases]int64
	transitions [numPhases]uint64

	wallNS    int64 // Start→Stop span
	simCycles int64 // final virtual time, set by Stop

	startMem runtime.MemStats
	stopMem  runtime.MemStats

	sampleCountdown uint32
	heapPeak        uint64
	goroutinePeak   int

	host Host
}

// New creates an idle monitor.
func New() *Monitor { return &Monitor{} }

// Start begins the run clock in PhaseSched (the engine dispatches the
// first token before any kernel instruction runs). The machine calls it
// at the top of Run.
func (m *Monitor) Start() {
	if m == nil || m.running {
		return
	}
	m.running = true
	m.base = time.Now() //simlint:allow wallclock — host-side self-measurement only
	m.lastNS = 0
	m.phase = PhaseSched
	m.host = ReadHost()
	runtime.ReadMemStats(&m.startMem)
	m.sampleHost()
	m.sampleCountdown = hostSampleEvery
}

// now returns nanoseconds since Start on the monotonic clock.
func (m *Monitor) now() int64 {
	return int64(time.Since(m.base)) //simlint:allow wallclock — host-side self-measurement only
}

// Transition charges the span since the previous transition to the
// current phase and enters p. Cost: one monotonic clock read.
func (m *Monitor) Transition(p Phase) {
	if m == nil || !m.running {
		return
	}
	t := m.now()
	m.phaseNS[m.phase] += t - m.lastNS
	m.lastNS = t
	m.phase = p
	m.transitions[p]++
	m.sampleCountdown--
	if m.sampleCountdown == 0 {
		m.sampleCountdown = hostSampleEvery
		m.sampleHost()
	}
}

// EnterSched marks the start of engine token-handoff work. The engine
// calls it through its Timer interface.
func (m *Monitor) EnterSched() { m.Transition(PhaseSched) }

// EnterApp marks a processor resuming application execution (engine
// Timer interface).
func (m *Monitor) EnterApp() { m.Transition(PhaseApp) }

// EnterCoherence marks entry into the memory-system model; the core
// reference path brackets every system call with
// EnterCoherence/EnterApp.
func (m *Monitor) EnterCoherence() { m.Transition(PhaseCoherence) }

// sampleHost snapshots the runtime gauges whose peaks the report keeps.
func (m *Monitor) sampleHost() {
	heap, goroutines := readHostGauges()
	if heap > m.heapPeak {
		m.heapPeak = heap
	}
	if goroutines > m.goroutinePeak {
		m.goroutinePeak = goroutines
	}
}

// Stop closes the run clock. simCycles is the run's final virtual time
// (the simulated work accomplished); the machine passes the maximum
// final processor clock. Stop is idempotent.
func (m *Monitor) Stop(simCycles int64) {
	if m == nil || !m.running {
		return
	}
	t := m.now()
	m.phaseNS[m.phase] += t - m.lastNS
	m.lastNS = t
	m.wallNS = t
	m.simCycles = simCycles
	m.running = false
	runtime.ReadMemStats(&m.stopMem)
	m.sampleHost()
}

// PhaseBreakdown is the wall-clock attribution of one run. The three
// phase spans tile WallNS exactly.
type PhaseBreakdown struct {
	AppNS       int64 `json:"appNs"`
	SchedNS     int64 `json:"schedNs"`
	CoherenceNS int64 `json:"coherenceNs"`
}

// Report is the monitor's summary of one run: throughput, phase
// attribution and the host block. Wall-clock fields vary run to run;
// Handoffs and Refs are deterministic for a deterministic simulation.
type Report struct {
	WallNS       int64          `json:"wallNs"`
	SimCycles    int64          `json:"simCycles"`
	CyclesPerSec float64        `json:"cyclesPerSec"`
	Handoffs     uint64         `json:"handoffs"`     // engine token handoffs observed
	Refs         uint64         `json:"refs"`         // memory-system calls observed
	EventsPerSec float64        `json:"eventsPerSec"` // (handoffs+refs) per wall second
	Phases       PhaseBreakdown `json:"phases"`
	AllocBytes   uint64         `json:"allocBytes"` // heap bytes allocated during the run
	Allocs       uint64         `json:"allocs"`     // heap objects allocated during the run
	Host         Host           `json:"host"`
}

// Report summarises a stopped (or still-running) monitor.
func (m *Monitor) Report() *Report {
	if m == nil {
		return nil
	}
	r := &Report{
		WallNS:    m.wallNS,
		SimCycles: m.simCycles,
		Handoffs:  m.transitions[PhaseSched],
		Refs:      m.transitions[PhaseCoherence],
		Phases: PhaseBreakdown{
			AppNS:       m.phaseNS[PhaseApp],
			SchedNS:     m.phaseNS[PhaseSched],
			CoherenceNS: m.phaseNS[PhaseCoherence],
		},
		AllocBytes: m.stopMem.TotalAlloc - m.startMem.TotalAlloc,
		Allocs:     m.stopMem.Mallocs - m.startMem.Mallocs,
		Host:       m.host,
	}
	r.Host.WallNS = m.wallNS
	r.Host.HeapPeakBytes = m.heapPeak
	r.Host.GoroutinePeak = m.goroutinePeak
	r.Host.GCPauseTotalNS = int64(m.stopMem.PauseTotalNs - m.startMem.PauseTotalNs)
	r.Host.NumGC = m.stopMem.NumGC - m.startMem.NumGC
	if sec := float64(m.wallNS) / 1e9; sec > 0 {
		r.CyclesPerSec = float64(m.simCycles) / sec
		r.EventsPerSec = float64(r.Handoffs+r.Refs) / sec
	}
	return r
}

// PhaseNS returns the accumulated wall nanoseconds of one phase.
func (m *Monitor) PhaseNS(p Phase) int64 { return m.phaseNS[p] }

// Transitions returns how many times phase p was entered.
func (m *Monitor) Transitions(p Phase) uint64 { return m.transitions[p] }
