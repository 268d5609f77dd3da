// Package gofix is the goroutine-rule fixture; the test checks it under
// the engine's import path, which gets no exemption: the engine drives
// its processors as coroutines and spawns no goroutine of its own.
package gofix

// Spawn forks a worker outside the engine's execution discipline.
func Spawn(ch chan int) {
	go func() { ch <- 1 }() // want:goroutine
}
