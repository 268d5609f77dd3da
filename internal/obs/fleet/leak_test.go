package fleet

import (
	"testing"

	"clustersim/internal/leakcheck"
)

// TestMain fails the package if any goroutine started by its tests is
// still alive once they finish.
func TestMain(m *testing.M) { leakcheck.Main(m) }
