// Package leakcheck fails a package's tests if any goroutine they start
// is still alive once they finish. Call it from the package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// permanent marks, by a frame of its stack, a goroutine the standard
// library starts once and never stops: os/signal's watcher, started by
// the first signal.Notify. It is not a leak and is not counted.
var permanent = []byte("\nos/signal.loop(")

// Main runs the tests, then compares the goroutine count with the count
// before them; a surplus fails the run and dumps every goroutine's stack
// to standard error. It does not return.
func Main(m *testing.M) {
	base := runtime.NumGoroutine() - permanentCount()
	code := m.Run()
	if code == 0 {
		if n := settled(base, permanentCount()); n > base {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines before tests, %d after\n%s\n", base, n, stacks())
			code = 1
		}
	}
	os.Exit(code)
}

// settled returns the goroutine count, less perm permanent ones, once
// it drops to base, yielding the processor meanwhile so that finished
// test goroutines get to exit; it gives up after a bounded number of
// yields.
func settled(base, perm int) int {
	n := runtime.NumGoroutine() - perm
	for i := 0; i < 100000 && n > base; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine() - perm
	}
	return n
}

// permanentCount returns how many live goroutines are permanent ones.
func permanentCount() int {
	n := 0
	for _, g := range bytes.Split(stacks(), []byte("\n\n")) {
		if bytes.Contains(g, permanent) {
			n++
		}
	}
	return n
}

// stacks returns the stacks of all goroutines.
func stacks() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}
