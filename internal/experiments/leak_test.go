package experiments

import (
	"testing"

	"clustersim/internal/leakcheck"
)

// TestMain fails the package if any goroutine started by its tests is
// still alive once they finish. The os/signal watcher the interrupt
// tests start lives on by design; leakcheck does not count it.
func TestMain(m *testing.M) { leakcheck.Main(m) }
