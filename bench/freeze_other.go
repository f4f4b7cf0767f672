//go:build !linux

package main

// Outside Linux the benchmark does not freeze itself for the echo
// reference: the echo then runs beside the idle stack, and background work
// the stack adds slows both.

func freeze(int) error { return nil }

func thaw(int) error { return nil }
