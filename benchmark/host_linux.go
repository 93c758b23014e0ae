//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in the kernel (nanosleep, about
// 60 µs late on a 2-CPU Linux host) rather than on the Go runtime's
// timers, which wake up to 1 ms late there; the open-loop generator would
// otherwise charge that lateness to every request it times.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// cpuTime is the CPU time (user + system) the process has used. On a
// kernel with paravirtual steal-time accounting it excludes time the
// hypervisor gave the CPU to another guest, which wall time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
