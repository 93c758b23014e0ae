//go:build !linux

package main

import "time"

// sleepUntil blocks until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// cpuTime is unmeasured off Linux: CPU-per-operation reads 0 there.
func cpuTime() time.Duration { return 0 }
