package engine

import "testing"

// BenchmarkYieldHandoff measures raw token-handoff throughput: two
// processors forced to alternate every event — the engine's worst case.
func BenchmarkYieldHandoff(b *testing.B) {
	s := NewScheduler(2, 0)
	n := b.N
	err := s.Run(func(pe *PE) {
		for i := 0; i < n; i++ {
			pe.Advance(1)
			pe.Yield()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(2*n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkYield64 measures scheduling across a full 64-processor
// machine with skewed advance amounts (amortised handoffs).
func BenchmarkYield64(b *testing.B) {
	s := NewScheduler(64, 0)
	n := b.N
	err := s.Run(func(pe *PE) {
		step := Clock(1 + pe.ID()%7)
		for i := 0; i < n; i++ {
			pe.Advance(step)
			pe.Yield()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(64*n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkQuantum64 shows the quantum's effect on handoff counts.
func BenchmarkQuantum64(b *testing.B) {
	s := NewScheduler(64, 100)
	n := b.N
	err := s.Run(func(pe *PE) {
		step := Clock(1 + pe.ID()%7)
		for i := 0; i < n; i++ {
			pe.Advance(step)
			pe.Yield()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(64*n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkYieldRing64 measures the cost of one handoff in the ring
// clusterbench times as engine.ns_per_handoff: 64 processors that each
// advance one cycle and yield, so every Yield passes control to the
// next processor in ID order. One op is one trip round the ring.
func BenchmarkYieldRing64(b *testing.B) {
	const pes = 64
	s := NewScheduler(pes, 0)
	n := b.N
	err := s.Run(func(pe *PE) {
		for i := 0; i < n; i++ {
			pe.Advance(1)
			pe.Yield()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pes*n), "ns/handoff")
}
