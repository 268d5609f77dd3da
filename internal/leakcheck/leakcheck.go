// Package leakcheck fails a package's tests if any goroutine they start
// is still alive once they finish. Call it from the package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
)

// Main runs the tests, then compares the goroutine count with the count
// before them; a surplus fails the run and dumps every goroutine's stack
// to standard error. It does not return.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settled(base); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines before tests, %d after\n%s\n", base, n, buf)
			code = 1
		}
	}
	os.Exit(code)
}

// settled returns the goroutine count once it drops to base, yielding
// the processor meanwhile so that finished test goroutines get to exit;
// it gives up after a bounded number of yields.
func settled(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > base; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}
